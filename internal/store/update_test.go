package store

import (
	"path/filepath"
	"testing"
)

func TestUpdate(t *testing.T) {
	db := OpenMemory()
	tbl, _ := db.CreateTable(testSchema())
	tbl.Insert(Row{Int(1), Str("old"), Str("p"), Float(1), Bool(true)})
	tbl.CreateIndex("norm")

	if err := tbl.Update(Int(1), Row{Int(1), Str("new"), Str("p"), Float(2), Bool(false)}); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get(Int(1))
	if err != nil || got[1].S != "new" || got[3].F != 2 {
		t.Fatalf("after update: %v, %v", got, err)
	}
	// Secondary index must follow.
	if rows := indexEq(t, tbl, "norm", Str("old")); len(rows) != 0 {
		t.Error("stale index entry after update")
	}
	if rows := indexEq(t, tbl, "norm", Str("new")); len(rows) != 1 {
		t.Error("missing index entry after update")
	}
	// Errors.
	if err := tbl.Update(Int(99), Row{Int(99), Str("x"), Str("p"), Float(0), Bool(true)}); err != ErrNotFound {
		t.Errorf("update missing row: %v", err)
	}
	if err := tbl.Update(Int(1), Row{Int(2), Str("x"), Str("p"), Float(0), Bool(true)}); err != ErrPKChange {
		t.Errorf("pk change: %v", err)
	}
	bad := Row{Int(1), Int(5), Str("p"), Float(0), Bool(true)}
	if err := tbl.Update(Int(1), bad); err == nil {
		t.Error("type mismatch accepted in update")
	}
}

func TestUpdatePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.db")
	db, _ := Open(path)
	tbl, _ := db.CreateTable(testSchema())
	tbl.Insert(Row{Int(1), Str("a"), Str("p"), Float(0), Bool(true)})
	tbl.Update(Int(1), Row{Int(1), Str("b"), Str("p"), Float(9), Bool(false)})
	db.Close()

	db2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("concepts")
	got, err := tbl2.Get(Int(1))
	if err != nil || got[1].S != "b" || got[3].F != 9 {
		t.Fatalf("replayed update: %v, %v", got, err)
	}
	if tbl2.Len() != 1 {
		t.Fatalf("Len = %d", tbl2.Len())
	}
}

func TestLookupRange(t *testing.T) {
	db := OpenMemory()
	tbl, _ := db.CreateTable(testSchema())
	for i := 0; i < 20; i++ {
		norm := string(rune('a' + i%5)) // a..e repeating
		tbl.Insert(Row{Int(int64(i)), Str(norm), Str("p"), Float(0), Bool(true)})
	}
	tbl.CreateIndex("norm")
	rows, st, err := tbl.Query(Query{Preds: []Pred{Ge("norm", Str("b")), Lt("norm", Str("d"))}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedIndex || st.IndexCol != "norm" || st.FullScan {
		t.Fatalf("range did not walk the norm index: %+v", st)
	}
	if len(rows) != 8 { // b and c, 4 rows each
		t.Fatalf("range rows = %d, want 8", len(rows))
	}
	// (value, primary key) order: b's rows by id, then c's.
	for i, r := range rows {
		want := "b"
		if i >= 4 {
			want = "c"
		}
		if r[1].S != want || (i > 0 && i != 4 && r[0].I <= rows[i-1][0].I) {
			t.Errorf("row %d = %v, want norm %s in id order", i, r, want)
		}
	}
}

func TestStats(t *testing.T) {
	db := OpenMemory()
	tbl, _ := db.CreateTable(testSchema())
	tbl.Insert(Row{Int(1), Str("a"), Str("p"), Float(0), Bool(true)})
	tbl.CreateIndex("norm")
	tbl.CreateIndex("preferred")
	s := tbl.Stats()
	if s.Rows != 1 || s.Segments != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if len(s.IndexNames) != 2 || s.IndexNames[0] != "norm" {
		t.Errorf("index names = %v", s.IndexNames)
	}
}
