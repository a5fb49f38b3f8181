package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/records"
	"repro/internal/store"
)

// env is one set-up workload: a work directory, the daemon serving it,
// and the in-process copy of the daemon's extraction configuration that
// builds the preload and acts as the oracle.
type env struct {
	w      workload
	seed   int64
	dir    string
	dbPath string
	sys    *core.System
	ont    *ontology.Ontology
	pool   notePool

	// The preload (query and mixed): its oracle charts by patient id-1,
	// the read mix over it and the oracle's answer to every ask.
	charts   [][]chartRow
	mix      *readMix
	answers  [][]int64
	preRows  int64
	preBytes int64 // note text of the preload
	decoded  int64 // decoded bytes of every block of the preloaded table
	blocks   int

	d  *daemon
	c  *client
	wr *writer
}

// setup brings a workload from nothing to a warmed-up daemon: corpus
// generation, the classifier's training corpus, the preload build and
// compaction, daemon start-up (which trains the classifier) and
// warm-up traffic.
func setup(w workload, seed int64, dir, bin string) (*env, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, dir: dir, dbPath: filepath.Join(dir, "warehouse.db")}

	train := generate(trainNotes, trainSeed(seed), 0)
	trainDir := filepath.Join(dir, "train")
	if err := records.WriteCorpus(trainDir, train); err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(core.Config{ResolveSynonyms: true})
	if err != nil {
		return nil, err
	}
	backend, err := classify.New("id3") // medexd's default -backend
	if err != nil {
		return nil, err
	}
	sys.TrainSmokingWith(train, backend)
	e.sys = sys
	if e.ont, err = ontology.New(ontology.Options{}); err != nil {
		return nil, err
	}

	if w.ingestClients > 0 {
		e.pool = notePool{pool: generate(poolNotes, poolSeed(seed), w.diversity), firstID: w.preloadNotes + 1}
	}
	if w.preloadNotes > 0 {
		if err := e.buildPreload(); err != nil {
			return nil, fmt.Errorf("building the preload: %w", err)
		}
	}

	args := []string{"-db", e.dbPath, "-train-corpus", trainDir}
	if w.cacheMB > 0 {
		args = append(args, "-block-cache-mb", strconv.Itoa(w.cacheMB))
	}
	if e.d, err = startDaemon(bin, filepath.Join(dir, "medexd.log"), args...); err != nil {
		return nil, err
	}
	e.c = newClient(e.d.base)
	e.wr = &writer{e: e}
	if err := e.warmUp(); err != nil {
		e.d.kill()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// buildPreload runs the pipeline over the preload corpus in-process,
// persists it on the 4-shard layout and compacts it, so every run reads
// the same segment layout. It then measures the table's decoded size by
// reading every block through an unbounded cache.
func (e *env) buildPreload() error {
	notes := generate(e.w.preloadNotes, preloadSeed(e.seed), 0)
	for _, n := range notes {
		e.preBytes += int64(len(n.Text))
	}
	exs := e.sys.ProcessAll(notes, preloadWorkers)
	e.charts = make([][]chartRow, len(exs))
	for i, ex := range exs {
		if ex.Patient != i+1 {
			return fmt.Errorf("note %d extracted as patient %d", i+1, ex.Patient)
		}
		e.charts[i] = chartOf(ex)
	}
	if err := e.persistPreload(exs); err != nil {
		return err
	}
	if capBytes := int64(e.w.cacheMB) << 20; capBytes > e.decoded/4 {
		return fmt.Errorf("a %d MiB block cache is over a quarter of the %d decoded bytes", e.w.cacheMB, e.decoded)
	}
	var err error
	if e.mix, err = newReadMix(mixSeed(e.seed), e.charts, resolver(e.ont)); err != nil {
		return err
	}
	e.answers = make([][]int64, len(e.mix.asks))
	for i, a := range e.mix.asks {
		e.answers[i] = a.answer(e.charts, 1)
	}
	return nil
}

func (e *env) persistPreload(exs []core.Extraction) (err error) {
	db, err := store.OpenSharded(e.dbPath, preloadShard)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}()
	n, err := core.PersistAll(db, exs)
	if err != nil {
		return err
	}
	e.preRows = int64(n)
	if err := db.Compact(); err != nil {
		return err
	}
	tbl, err := db.Table(core.ResultTable)
	if err != nil {
		return err
	}
	db.SetBlockCacheCapacity(1 << 40)
	tbl.Scan(func(store.Row) bool { return true })
	cs := db.BlockCacheStats()
	e.decoded, e.blocks = cs.Bytes, cs.Entries
	return nil
}

// Warm-up traffic: a few batches, every ask once and a run of reads
// from the far end of the read sequence.
const (
	warmBatches = 8
	warmReads   = 50
)

func (e *env) warmUp() error {
	v, rec := &verifier{e: e}, &recorder{}
	if e.w.ingestClients > 0 {
		for i := 0; i < warmBatches; i++ {
			if err := e.wr.post(e.c, rec); err != nil {
				return err
			}
		}
	}
	if e.mix != nil {
		for i := range e.mix.asks {
			v.read(e.c, read{ask: i}, rec, time.Time{})
		}
		for i := 0; i < warmReads; i++ {
			v.read(e.c, e.mix.reads[len(e.mix.reads)-1-i], rec, time.Time{})
		}
	}
	if rec.failed > 0 {
		return rec.failure
	}
	if err := v.err(); err != nil {
		return &gateError{err}
	}
	return nil
}

// teardown stops the daemon and removes the work directory.
func (e *env) teardown() error {
	err := e.d.stop()
	e.c.close()
	if rmErr := os.RemoveAll(e.dir); err == nil {
		err = rmErr
	}
	return err
}
