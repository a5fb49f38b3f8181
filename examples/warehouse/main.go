// Warehouse: run the pipeline over a corpus, persist every extracted
// attribute to the embedded store (the paper's Access database), then
// answer paper-style questions through the query layer — secondary
// indexes created before ingest and maintained transactionally by every
// batch insert — and compact the write-ahead logs, which carries the
// indexes into the rewritten logs.
//
// Run with --shards N to partition the store: inserts route to N shard
// WALs in parallel and every question fans out across the shards; the
// answers are identical to the single-shard run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/records"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	shards := flag.Int("shards", 1, "store shard count (1 = single-file layout)")
	flag.Parse()

	dir, err := os.MkdirTemp("", "warehouse")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "extracted.db")

	recs := records.Generate(records.DefaultGenOptions())
	sys, err := core.NewSystem(core.Config{Strategy: core.LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		log.Fatal(err)
	}
	sys.TrainSmoking(recs)

	db, err := store.OpenSharded(dbPath, *shards)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Open the warehouse before ingest: the extracted table and its
	// attribute/patient indexes exist up front, so the batched inserts
	// below maintain them transactionally and the questions afterwards
	// never fall back to a full scan.
	ont := ontology.MustNew(ontology.Options{})
	w, err := core.OpenWarehouse(db, ont)
	if err != nil {
		log.Fatal(err)
	}

	rows, err := core.PersistAll(db, sys.ProcessAll(recs, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted %d attribute rows for %d patients (%d byte WAL, %d shard(s))\n\n",
		rows, len(recs), db.LogSize(), db.Shards())

	// Question 1 (chart review, the paper's motivating use case):
	// current smokers with elevated systolic blood pressure.
	patients, stats, err := w.Ask(
		core.HasTerm("smoking", records.SmokingCurrent),
		core.Cond{Attr: records.AttrBloodPressure, Min: ptr(140.0)},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("current smokers with systolic >= 140: %d patients %v\n", len(patients), patients)
	fmt.Printf("  (%d/%d conditions indexed, %d rows examined, %d full scans)\n\n",
		stats.IndexedConds, stats.Conds, stats.RowsExamined, stats.FullScans)

	// Question 2: prevalence of each predefined past-medical condition,
	// one indexed lookup for the whole attribute.
	prevalence, err := w.Prevalence("predefined past medical history")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("predefined condition prevalence:")
	for _, cond := range []string{"diabetes", "hypertension", "heart disease", "depression"} {
		fmt.Printf("  %-15s %d/%d patients\n", cond, prevalence[cond], len(recs))
	}

	// Question 3: one patient's reconstructed chart.
	if len(patients) > 0 {
		chart, err := w.Patient(patients[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\npatient %d chart (%d attributes)\n", patients[0], len(chart))
	}

	// Maintenance: compact — rows fold into immutable sorted segment
	// files, the WAL shrinks to schema/index records, indexes survive.
	before := db.LogSize()
	if err := db.Compact(); err != nil {
		log.Fatal(err)
	}
	st := w.Table().Stats()
	fmt.Printf("\ncompacted WAL: %d → %d bytes (%d segment file(s); indexes preserved: %v)\n",
		before, db.LogSize(), st.Segments, st.IndexNames)
}

func ptr(f float64) *float64 { return &f }
