package store_test

import (
	"fmt"

	"repro/internal/store"
)

// Create a table, insert rows, and look them up through a secondary
// index — the ontology's access pattern.
func Example() {
	db := store.OpenMemory()
	tbl, err := db.CreateTable(store.Schema{
		Name: "terms",
		Columns: []store.Column{
			{Name: "id", Type: store.TInt},
			{Name: "norm", Type: store.TString},
			{Name: "cui", Type: store.TString},
		},
		Primary: 0,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	tbl.Insert(store.Row{store.Int(1), store.Str("blood high pressure"), store.Str("C0003")})
	tbl.Insert(store.Row{store.Int(2), store.Str("htn"), store.Str("C0003")})
	tbl.CreateIndex("norm")

	rows, _, _ := tbl.Query(store.Query{Preds: []store.Pred{store.Eq("norm", store.Str("htn"))}})
	fmt.Println(rows[0][2].S)
	// Output: C0003
}
