package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/records"
)

// client is the load generator's HTTP side: one process, at most two
// connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer; a transport error or
// a status other than want is an error.
func (c *client) do(method, path, ctype string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// opCounts counts successful operations across a phase's goroutines.
type opCounts struct{ batches, asks, patients atomic.Int64 }

// recorder holds one goroutine's samples, merged after the phase.
type recorder struct {
	counts                            *opCounts // shared; nil outside a measured phase
	batchMS, askMS, patientMS, lateMS []float64
	attempted, failed                 int
	notes, bytes, rows, reads         int64
	last                              time.Time // completion of the last operation
	failure                           error     // first failed operation, for the log
}

func (r *recorder) done(t time.Time) {
	if t.After(r.last) {
		r.last = t
	}
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.failure == nil {
		r.failure = err
	}
}

func (r *recorder) merge(o *recorder) {
	r.batchMS = append(r.batchMS, o.batchMS...)
	r.askMS = append(r.askMS, o.askMS...)
	r.patientMS = append(r.patientMS, o.patientMS...)
	r.lateMS = append(r.lateMS, o.lateMS...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes += o.notes
	r.bytes += o.bytes
	r.rows += o.rows
	r.reads += o.reads
	r.done(o.last)
	if r.failure == nil {
		r.failure = o.failure
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writer is the ingest side: it hands out batches of the note sequence
// and tracks what the daemon has acknowledged.
type writer struct {
	e    *env
	next atomic.Int64 // next batch number

	// With a single ingest client (mixed) batches go out in order, so
	// notes [0, sent) have been sent, and those of [0, acked) that are
	// not in a failed batch acknowledged.
	sent, acked atomic.Int64

	mu        sync.Mutex
	ackedRows int64
	batches   []int64        // acknowledged batch numbers
	failed    map[int64]bool // failed batch numbers; the daemon may or may not hold them
}

// failedNote reports whether note k of the sequence was in a failed batch.
func (wr *writer) failedNote(k int64) bool {
	wr.mu.Lock()
	defer wr.mu.Unlock()
	return wr.failed[k/int64(wr.e.w.batch)]
}

func (wr *writer) fail(k int64, rec *recorder, err error) {
	rec.fail(err)
	wr.mu.Lock()
	defer wr.mu.Unlock()
	if wr.failed == nil {
		wr.failed = map[int64]bool{}
	}
	wr.failed[k] = true
}

// post sends the next batch and records its latency. A refused or
// failed request counts as failed; an error means the benchmark itself
// went wrong.
func (wr *writer) post(c *client, rec *recorder) error {
	b := int64(wr.e.w.batch)
	k := wr.next.Add(1) - 1
	batch, err := wr.notes(k)
	if err != nil {
		return err
	}
	body, err := ndjson(batch)
	if err != nil {
		return err
	}
	wr.sent.Store((k + 1) * b)
	rec.attempted++
	start := time.Now()
	raw, err := c.do("POST", "/v1/ingest", "application/x-ndjson", body, http.StatusAccepted)
	end := time.Now()
	rec.done(end)
	if err != nil {
		wr.fail(k, rec, err)
		return nil
	}
	var ack struct {
		Records, Rows int
		Durable       bool
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		wr.fail(k, rec, err)
		return nil
	}
	if ack.Records != len(batch) || !ack.Durable {
		return fmt.Errorf("batch %d: acknowledged %d of %d notes, durable=%v", k, ack.Records, len(batch), ack.Durable)
	}
	wr.acked.Store((k + 1) * b)
	wr.mu.Lock()
	wr.ackedRows += int64(ack.Rows)
	wr.batches = append(wr.batches, k)
	wr.mu.Unlock()
	rec.batchMS = append(rec.batchMS, ms(end.Sub(start)))
	if rec.counts != nil {
		rec.counts.batches.Add(1)
	}
	rec.notes += b
	rec.bytes += int64(len(body))
	rec.rows += int64(ack.Rows)
	return nil
}

// notes returns batch k of the note sequence.
func (wr *writer) notes(k int64) ([]records.Record, error) {
	b := wr.e.w.batch
	out := make([]records.Record, b)
	for j := range out {
		n, err := wr.e.pool.note(int(k)*b + j)
		if err != nil {
			return nil, err
		}
		out[j] = n
	}
	return out, nil
}

// verifier checks every read answer against the oracle. Answers to asks
// on mixed also cover notes acknowledged during the run; those are
// checked on a seeded sample of notes after the run (see askCheck).
type verifier struct {
	e *env

	mu       sync.Mutex
	failures []error
	checks   []askCheck
}

// sampled reports whether note k of the ingest sequence is in the
// after-run sample: a multiplicative hash keeps about one note in 64,
// spread over the whole note pool.
func sampled(k int64) bool { return uint64(k)*0x9E3779B97F4A7C15>>58 == 0 }

// askCheck is what an ask answer on mixed said about sampled new notes:
// which of those acknowledged before the ask was sent it listed.
type askCheck struct {
	ask         int
	ackedAtSend int64
	listed      map[int64]bool // sampled note numbers in the answer
}

func (v *verifier) failf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.failures) < 10 {
		v.failures = append(v.failures, fmt.Errorf(format, args...))
	}
}

func (v *verifier) err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.failures) == 0 {
		return nil
	}
	return fmt.Errorf("%d wrong answers, first: %w", len(v.failures), v.failures[0])
}

// read performs one read of the mix and records its latency, measured
// from due when the open loop set one and from the send otherwise.
// It returns how late the send was.
func (v *verifier) read(c *client, r read, rec *recorder, due time.Time) time.Duration {
	e := v.e
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	late := start.Sub(due)
	rec.attempted++
	if r.ask < 0 {
		raw, err := c.do("GET", "/v1/patient/"+strconv.FormatInt(r.patient, 10), "", nil, http.StatusOK)
		end := time.Now()
		rec.done(end)
		if err != nil {
			rec.fail(err)
			return late
		}
		rec.patientMS = append(rec.patientMS, ms(end.Sub(due)))
		if rec.counts != nil {
			rec.counts.patients.Add(1)
		}
		rec.reads++
		v.checkChart(r.patient, raw, e.charts[r.patient-1])
		return late
	}
	ackedAtSend := e.wr.acked.Load()
	raw, err := c.do("POST", "/v1/ask", "application/json", e.mix.asks[r.ask].body, http.StatusOK)
	end := time.Now()
	sentAtReply := e.wr.sent.Load()
	rec.done(end)
	if err != nil {
		rec.fail(err)
		return late
	}
	rec.askMS = append(rec.askMS, ms(end.Sub(due)))
	if rec.counts != nil {
		rec.counts.asks.Add(1)
	}
	rec.reads++
	v.checkAsk(r.ask, raw, ackedAtSend, sentAtReply)
	return late
}

// checkChart compares a /v1/patient answer with the oracle chart.
func (v *verifier) checkChart(id int64, raw []byte, want []chartRow) {
	var got struct {
		Patient int64
		Rows    []struct {
			Patient int64
			chartRow
		}
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		v.failf("patient %d: %v", id, err)
		return
	}
	rows := make([]chartRow, len(got.Rows))
	for i, r := range got.Rows {
		if r.Patient != id {
			v.failf("patient %d: chart holds a row of patient %d", id, r.Patient)
			return
		}
		rows[i] = r.chartRow
	}
	if got.Patient != id || !slices.Equal(rows, want) {
		v.failf("patient %d: chart %v, oracle %v", id, rows, want)
	}
}

// checkAsk compares an ask answer with the oracle. Preloaded patients
// must match exactly. Patients of new notes must have been sent before
// the reply; sampled ones acknowledged before the send are kept for the
// after-run check.
func (v *verifier) checkAsk(ai int, raw []byte, ackedAtSend, sentAtReply int64) {
	var got struct{ Patients []int64 }
	if err := json.Unmarshal(raw, &got); err != nil {
		v.failf("ask %d: %v", ai, err)
		return
	}
	n := int64(len(v.e.charts))
	var pre []int64
	listed := map[int64]bool{}
	for _, p := range got.Patients {
		if p <= n {
			pre = append(pre, p)
			continue
		}
		k := p - n - 1
		if k >= sentAtReply {
			v.failf("ask %d: lists patient %d, whose note was not sent before the reply", ai, p)
			return
		}
		if sampled(k) && k < ackedAtSend {
			listed[k] = true
		}
	}
	if want := v.e.answers[ai]; !slices.Equal(pre, want) {
		v.failf("ask %d %s: %d preloaded patients, oracle %d", ai, v.e.mix.asks[ai].body, len(pre), len(want))
		return
	}
	if v.e.w.ingestClients > 0 {
		v.mu.Lock()
		v.checks = append(v.checks, askCheck{ask: ai, ackedAtSend: ackedAtSend, listed: listed})
		v.mu.Unlock()
	}
}
