package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// phase is one measured run of a set-up workload.
type phase struct {
	rec           recorder
	elapsed       time.Duration
	before, after daemonStats
	rssMB         float64
}

// measure drives the workload's traffic for the given time: closed-loop
// ingest clients, closed-loop read clients, or an open-loop read
// stream whose latency counts from each request's due time. Should an
// operation type with a p99 still lack minSamples at the deadline, the
// phase runs on until it has them, for at most as long again.
func (e *env) measure(d time.Duration, minSamples int64, v *verifier) (*phase, error) {
	ph := &phase{}
	var err error
	if ph.before, err = e.d.stats(e.c.hc); err != nil {
		return nil, err
	}
	start := time.Now()
	end, limit := start.Add(d), start.Add(2*d)
	var counts opCounts
	short := func() bool {
		return e.w.ingestClients > 0 && counts.batches.Load() < minSamples ||
			e.mix != nil && (counts.asks.Load() < minSamples || counts.patients.Load() < minSamples)
	}
	running := func(t time.Time) bool { return t.Before(end) || t.Before(limit) && short() }

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		recs     []*recorder
		next     atomic.Int64 // closed-loop position in the read sequence
	)
	spawn := func(loop func(rec *recorder) error) {
		rec := &recorder{counts: &counts}
		recs = append(recs, rec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := loop(rec); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < e.w.ingestClients; i++ {
		spawn(func(rec *recorder) error {
			for running(time.Now()) {
				if err := e.wr.post(e.c, rec); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for i := 0; i < e.w.readClients; i++ {
		spawn(func(rec *recorder) error {
			for running(time.Now()) {
				v.read(e.c, e.mix.at(int(next.Add(1)-1)), rec, time.Time{})
			}
			return nil
		})
	}
	if e.w.readRate > 0 {
		interval := time.Duration(float64(time.Second) / e.w.readRate)
		spawn(func(rec *recorder) error {
			openLoop(start, interval, running, func(i int, due time.Time) {
				late := v.read(e.c, e.mix.at(i), rec, due)
				rec.lateMS = append(rec.lateMS, ms(late))
			})
			return nil
		})
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for _, r := range recs {
		ph.rec.merge(r)
	}
	ph.elapsed = ph.rec.last.Sub(start)
	if ph.after, err = e.d.stats(e.c.hc); err != nil {
		return nil, err
	}
	if ph.rssMB, err = e.d.peakRSSMB(); err != nil {
		return nil, err
	}
	return ph, nil
}

// openLoop calls send for request i at its due time start+i*interval,
// for as long as running(due) holds. Sends run one at a time on the
// calling goroutine, so a slow request delays the ones due after it;
// send sees the due time and counts the delay (its start minus due) as
// lateness and as part of the request's latency.
func openLoop(start time.Time, interval time.Duration, running func(time.Time) bool, send func(i int, due time.Time)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !running(due) {
			return
		}
		time.Sleep(time.Until(due))
		send(i, due)
	}
}

// gateError is a wrong answer from the daemon or a failed trace
// self-check, as opposed to a failure to run the benchmark at all.
type gateError struct{ err error }

func (g *gateError) Error() string { return "correctness gate: " + g.err.Error() }
func (g *gateError) Unwrap() error { return g.err }

func gatef(format string, args ...any) error { return &gateError{fmt.Errorf(format, args...)} }

// chartSample is how many acknowledged new notes have their chart
// compared with the oracle after the run; enough to catch a defect that
// touches one note in a hundred nine times in ten.
const chartSample = 256

// gates checks the run's answers once the traffic has stopped: every
// read answer checked during the run, the table's row count against the
// acknowledged rows, a seeded sample of new charts, and every ask on
// mixed against the oracle's extraction of a seeded sample of new notes.
func (e *env) gates(v *verifier, ph *phase) error {
	if err := v.err(); err != nil {
		return &gateError{err}
	}
	if e.w.ingestClients == 0 {
		return nil
	}
	// A failed batch may have been stored before its request failed
	// (a client timeout), so its rows are allowed but not required.
	want := e.preRows + e.wr.ackedRows
	var maybe int64
	for k := range e.wr.failed {
		n, err := e.oracleRows(k)
		if err != nil {
			return err
		}
		maybe += n
	}
	if got := ph.after.Table.Rows; got < want || got > want+maybe {
		return gatef("table holds %d rows, the preload and acknowledged batches %d (failed batches %d more at most)", got, want, maybe)
	}
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < chartSample && len(e.wr.batches) > 0; i++ {
		k := int(e.wr.batches[rng.Intn(len(e.wr.batches))])*e.w.batch + rng.Intn(e.w.batch)
		note, err := e.pool.note(k)
		if err != nil {
			return err
		}
		ex := e.sys.Process(note.Text)
		if ex.Patient != note.ID {
			return gatef("oracle reads note %d as patient %d", note.ID, ex.Patient)
		}
		raw, err := e.c.do("GET", "/v1/patient/"+strconv.Itoa(note.ID), "", nil, 200)
		if err != nil {
			return err
		}
		v.checkChart(int64(note.ID), raw, chartOf(ex))
	}
	if err := v.err(); err != nil {
		return &gateError{err}
	}
	return e.checkNewNotesInAsks(v)
}

// oracleRows is how many rows the oracle extracts from batch k.
func (e *env) oracleRows(k int64) (int64, error) {
	notes, err := e.wr.notes(k)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, note := range notes {
		n += int64(len(chartOf(e.sys.Process(note.Text))))
	}
	return n, nil
}

// checkNewNotesInAsks compares what every ask on mixed said about the
// sampled new notes acknowledged before it was sent with the oracle's
// extraction of those notes. Notes of failed batches are left out: the
// daemon may or may not hold them.
func (e *env) checkNewNotesInAsks(v *verifier) error {
	var horizon int64
	for _, c := range v.checks {
		horizon = max(horizon, c.ackedAtSend)
	}
	match := map[int64][]bool{}
	for k := int64(0); k < horizon; k++ {
		if !sampled(k) || e.wr.failedNote(k) {
			continue
		}
		note, err := e.pool.note(int(k))
		if err != nil {
			return err
		}
		chart := chartOf(e.sys.Process(note.Text))
		m := make([]bool, len(e.mix.asks))
		for ai, a := range e.mix.asks {
			m[ai] = a.matches(chart)
		}
		match[k] = m
	}
	for _, c := range v.checks {
		for k, m := range match {
			if k < c.ackedAtSend && c.listed[k] != m[c.ask] {
				return gatef("ask %s: patient %d listed=%v, oracle match=%v", e.mix.asks[c.ask].body, int64(e.pool.firstID)+k, c.listed[k], m[c.ask])
			}
		}
	}
	return nil
}
