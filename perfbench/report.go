package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/records"
	"repro/internal/store"
)

// report turns a measured phase (and, with -trace 1, a traced run) into
// metrics.
type report struct {
	w      workload
	o      options
	e      *env
	ph     *phase
	setups []float64 // seconds of each set-up
	lines  []line

	askP50 float64 // ms, for medexd.overhead_us_per_ask
}

func (r *report) add(name string, v float64, unit, note string) {
	r.lines = append(r.lines, line{name, v, unit, note})
}

// latency adds an operation's mean, median, p90 and p99 lines and
// returns the mean and the median; fewer than 1000 samples is an error.
func (r *report) latency(prefix string, xs []float64, note string) (mean, p50 float64, err error) {
	p99, err := quantile(xs, 0.99, r.o.minBeyond)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w; lengthen -seconds", prefix, err)
	}
	p90, _ := quantile(xs, 0.90, r.o.minBeyond) // has ten times the samples beyond it
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	p50 = median(xs)
	n := fmt.Sprintf("(n=%d%s)", len(xs), note)
	r.add(prefix+"_mean_ms", mean, "ms", n)
	r.add(prefix+"_p50_ms", p50, "ms", n)
	r.add(prefix+"_p90_ms", p90, "ms", n)
	r.add(prefix+"_p99_ms", p99, "ms", n)
	return mean, p50, nil
}

// endToEnd computes the untraced daemon-run metrics. Every workload
// reports the same four: the rate and latency of the operation the
// workload exists to load, the daemon's memory and the set-up time.
// Tails are printed but not returned: they move with the machine's
// other load by close to the largest bound a metric may have.
//
//	workload  throughput_per_s          op_latency_ms
//	ingest    notes acknowledged /s     mean of POST /v1/ingest to 202
//	query     reads answered /s         mean of /v1/ask, closed loop
//	mixed     notes acknowledged /s     median of /v1/ask from its due time
//
// A closed loop's latency is its mean: that is the reciprocal of each
// client's rate, so it weighs the whole run, whereas the median is one
// point on a run whose latency drifts (an ingest batch takes about four
// times as long at the end of a run as at the start, as the table
// grows). An open loop's latency is its median, which a stall that
// delays a burst of requests barely moves.
func (r *report) endToEnd() (map[string]metric, error) {
	rec := r.ph.rec
	secs := r.ph.elapsed.Seconds()
	var thru, op float64
	if r.w.ingestClients > 0 {
		thru = float64(rec.notes) / secs
		r.add("ingest_records_per_s", thru, "1/s", fmt.Sprintf("(%d notes, %.1f MiB, in %d batches over %.2fs)",
			rec.notes, float64(rec.bytes)/(1<<20), len(rec.batchMS), secs))
		var err error
		if op, _, err = r.latency("ingest_batch", rec.batchMS, ""); err != nil {
			return nil, err
		}
	}
	if r.e.mix != nil {
		note := ", closed loop"
		if r.w.readRate > 0 {
			note = ", from due time"
		}
		mean, p50, err := r.latency("ask", rec.askMS, note)
		if err != nil {
			return nil, err
		}
		if _, _, err := r.latency("patient", rec.patientMS, note); err != nil {
			return nil, err
		}
		r.askP50 = p50
		op = p50
		if r.w.readClients > 0 {
			op = mean
			thru = float64(rec.reads) / secs
			r.add("queries_per_s", thru, "1/s", fmt.Sprintf("(%d reads over %.2fs)", rec.reads, secs))
		}
	}
	r.add("failed_ratio", ratio(float64(rec.failed), float64(rec.attempted)), "ratio", fmt.Sprintf("(%d of %d)", rec.failed, rec.attempted))
	r.add("setup_s", median(r.setups), "s", fmt.Sprintf("(median of %d set-ups)", len(r.setups)))
	r.add("daemon_peak_rss_mb", r.ph.rssMB, "MB", "(VmHWM)")
	return map[string]metric{
		"throughput_per_s":   {thru, "1/s"},
		"op_latency_ms":      {op, "ms"},
		"daemon_peak_rss_mb": {r.ph.rssMB, "MB"},
		"setup_s":            {median(r.setups), "s"},
	}, nil
}

// Traced-run sizes: enough notes and reads for stable per-unit times
// within a few seconds.
const (
	traceBatches = 40
	traceReadsN  = 160
)

// perLayer runs the traced in-process run and returns every per-layer
// metric. A layer the workload does not exercise reports 0.
func (r *report) perLayer() (map[string]metric, error) {
	e, ph := r.e, r.ph
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		m[name] = metric{v, unit}
		r.add(name, v, unit, "")
	}
	d := func(a, b int64) float64 { return float64(a - b) }
	us := func(t time.Duration, n int) float64 { return ratio(float64(t)/float64(time.Microsecond), float64(n)) }
	b, a := ph.before, ph.after

	rt, pt := &readTrace{}, &pipelineTrace{}
	db, err := r.openTraceDB()
	if err != nil {
		return nil, err
	}
	if e.mix != nil {
		if rt, err = r.traceReads(db); err != nil {
			db.Close()
			return nil, fmt.Errorf("traced reads: %w", err)
		}
	}
	if e.w.ingestClients > 0 {
		if pt, err = r.tracePipeline(db); err != nil {
			db.Close()
			return nil, fmt.Errorf("traced pipeline: %w", err)
		}
	}
	if err := db.Close(); err != nil {
		return nil, err
	}

	n := pt.notes
	put("records.decode_us_per_rec", us(pt.decode, n), "us/rec")
	put("textproc.analyze_us_per_rec", us(pt.analyze, n), "us/rec")
	put("pos.tag_us_per_rec", us(pt.tag, n), "us/rec")
	put("pos.tags_per_rec", ratio(float64(pt.tagPasses), float64(n)), "count/rec")
	put("linkgram.parse_us_per_rec", us(pt.parse, n), "us/rec")
	put("linkgram.parses_per_rec", ratio(float64(pt.parsePasses), float64(n)), "count/rec")
	put("linkgram.nolinkage_ratio", ratio(float64(pt.noLink), float64(pt.parseAttempts)), "ratio")
	put("linkgram.parse_share", ratio(float64(pt.parse), float64(pt.traced)), "ratio")
	put("core.numeric_us_per_rec", us(pt.numeric, n), "us/rec")
	put("core.terms_us_per_rec", us(pt.terms, n), "us/rec")
	put("classify.predict_us_per_rec", us(pt.classify, n), "us/rec")
	put("core.persist_us_per_batch", us(pt.persist, pt.batches), "us/batch")
	put("core.rows_per_rec", ratio(float64(pt.rows), float64(n)), "count/rec")
	put("store.sync_us_per_batch", us(pt.sync, pt.batches), "us/batch")

	put("core.ingester.batches_per_group", ratio(d(a.Ingest.Batches, b.Ingest.Batches), d(a.Ingest.Groups, b.Ingest.Groups)), "count")
	put("core.ingester.peak_queue", float64(a.Ingest.PeakQueue), "count")
	put("core.ingester.rejected", d(a.Ingest.Rejected, b.Ingest.Rejected), "count")
	put("store.compaction.minor_runs", d(a.Compaction.MinorRuns, b.Compaction.MinorRuns), "count")
	put("store.compaction.major_runs", d(a.Compaction.MajorRuns, b.Compaction.MajorRuns), "count")
	// WAL bytes the daemon wrote are not in /v1/stats; they are
	// estimated from the traced run's WAL bytes per row.
	walWritten := d(a.Ingest.Rows, b.Ingest.Rows) * ratio(float64(pt.walBytes), float64(pt.rows))
	put("store.compaction.write_amp", ratio(d(a.Compaction.BytesRewritten, b.Compaction.BytesRewritten), walWritten), "ratio")
	put("store.compaction.backlog_end", float64(a.Compaction.Backlog), "count")
	hits, misses := d(a.Cache.Hits, b.Cache.Hits), d(a.Cache.Misses, b.Cache.Misses)
	put("store.cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("store.cache.evictions", d(a.Cache.Evictions, b.Cache.Evictions), "count")

	put("store.query_us_per_cond", us(rt.cond, rt.conds), "us")
	put("store.rows_examined_per_result", ratio(float64(rt.rowsExamined), float64(rt.rowsReturned)), "ratio")
	put("store.cache_misses_per_ask", ratio(float64(rt.cacheMisses), float64(rt.asks)), "count")
	put("store.blocks_pruned_per_ask", ratio(float64(rt.blocksPruned), float64(rt.asks)), "count")
	put("core.ask_self_us", us(rt.ask-rt.cond, rt.asks), "us")
	put("store.lookup_us_per_patient", us(rt.patient, rt.patients), "us")
	overhead := 0.0
	if r.w.readClients > 0 {
		// Derived: the daemon's closed-loop ask median less the
		// in-process Warehouse.Ask median over the same mix.
		overhead = 1000*r.askP50 - median(rt.askUS)
	}
	put("medexd.overhead_us_per_ask", overhead, "us")
	late := 0.0
	if len(ph.rec.lateMS) > 0 {
		if late, err = quantile(ph.rec.lateMS, 0.99, r.o.minBeyond); err != nil {
			return nil, fmt.Errorf("loadgen lateness: %w", err)
		}
	}
	put("loadgen.late_p99_ms", late, "ms")

	layerSum := ratio(float64(pt.layerSum()), float64(pt.whole))
	put("trace.layer_sum_ratio", layerSum, "ratio")
	put("trace.overhead_ratio", ratio(float64(pt.traced), float64(pt.untraced)), "ratio")
	if pt.notes > 0 && (layerSum < 1-layerSumTolerance || layerSum > 1) {
		return nil, gatef("trace self-check: layers sum to %.4f of the traced path, outside [%.2f, 1]", layerSum, 1-layerSumTolerance)
	}
	return m, nil
}

// openTraceDB opens the database the traced run uses: the daemon's
// warehouse once it has shut down (query, mixed), or a fresh database
// with the daemon's default layout (ingest). Its block cache is set as
// the daemon's was.
func (r *report) openTraceDB() (*store.DB, error) {
	path := r.e.dbPath
	if r.e.mix == nil {
		path = filepath.Join(r.e.dir, "trace.db")
	}
	db, err := store.OpenSharded(path, 0)
	if err != nil {
		return nil, err
	}
	if r.w.cacheMB > 0 {
		db.SetBlockCacheCapacity(int64(r.w.cacheMB) << 20)
	}
	return db, nil
}

// traceReads warms the cache with every ask once, then traces the
// start of the workload's read sequence.
func (r *report) traceReads(db *store.DB) (*readTrace, error) {
	wh, err := core.OpenWarehouse(db, r.e.ont)
	if err != nil {
		return nil, err
	}
	for _, a := range r.e.mix.asks {
		cs := make([]core.Cond, len(a.conds))
		for i, c := range a.conds {
			cs[i] = c.core()
		}
		if _, _, err := wh.Ask(cs...); err != nil {
			return nil, err
		}
	}
	return traceReads(wh, resolver(r.e.ont), r.e.mix, r.e.mix.reads[:traceReadsN])
}

// tracePipeline runs the workload's first batches of notes through the
// traced ingest path.
func (r *report) tracePipeline(db *store.DB) (*pipelineTrace, error) {
	batches := make([][]records.Record, traceBatches)
	for k := range batches {
		notes, err := r.e.wr.notes(int64(k))
		if err != nil {
			return nil, err
		}
		batches[k] = notes
	}
	return tracePipeline(r.e.sys, db, batches)
}
