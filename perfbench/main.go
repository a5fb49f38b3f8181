// Command perfbench is the repository's benchmark. It builds medexd from
// the checkout, runs it as a subprocess on a fresh work directory,
// drives it over HTTP with one of three workloads, checks every answer
// against an in-process oracle, and prints its metrics; the last line of
// standard output is one JSON object. With -trace 1 it then repeats the
// workload's inputs in-process and prints per-layer metrics instead.
//
//	bash perfbench/run.sh --workload ingest|query|mixed --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool

	// minBeyond is how many samples must lie beyond every reported
	// percentile; tests lower it for short runs.
	minBeyond int
}

func parseFlags(args []string) (options, error) {
	o := options{minBeyond: minBeyond}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.root, "root", ".", "root of the checkout to build and benchmark")
	fs.StringVar(&o.workload, "workload", "", "ingest, query or mixed")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced in-process run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, err := workloadNamed(o.workload); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1 (got %d)", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1 (got %d)", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	w, _ := workloadNamed(o.workload) // parseFlags checked the name
	res, err := run(o, w, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.As(err, new(*gateError)) {
			printResult(os.Stdout, result{Correct: false, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}})
		}
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

func printResult(w io.Writer, r result) {
	line, _ := json.Marshal(r) // a struct of numbers and strings always encodes
	fmt.Fprintf(w, "%s\n", line)
}

// Set-up runs at least setupMinReps times per run, and on until
// setupMinTotal has passed or setupMaxReps is reached; setup_s is the
// median, and the last set-up is the one measured. A cheap set-up
// (ingest's) is thus repeated often enough that a short stall of the
// machine does not move the median.
const (
	setupMinReps  = 5
	setupMaxReps  = 25
	setupMinTotal = 3 * time.Second
)

func run(o options, w workload, out io.Writer) (result, error) {
	var res result
	root, err := filepath.Abs(o.root)
	if err != nil {
		return res, err
	}
	build := filepath.Join(root, ".bench_build")
	bin, err := buildDaemon(root, build)
	if err != nil {
		return res, err
	}
	dir := filepath.Join(build, fmt.Sprintf("work-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(dir)

	var setups []float64
	var e *env
	for first := time.Now(); len(setups) < setupMinReps ||
		len(setups) < setupMaxReps && time.Since(first) < setupMinTotal; {
		if e != nil {
			if err := e.teardown(); err != nil {
				return res, err
			}
		}
		start := time.Now()
		if e, err = setup(w, o.seed, dir, bin); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			e.d.kill()
		}
	}()

	v := &verifier{e: e}
	ph, err := e.measure(time.Duration(o.seconds)*time.Second, int64(100*o.minBeyond), v)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = ph.rec.attempted, ph.rec.failed
	if ph.rec.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed, first: %v\n", ph.rec.failed, ph.rec.attempted, ph.rec.failure)
	}
	if err := e.gates(v, ph); err != nil {
		return res, err
	}
	stopped = true
	e.c.close()
	if err := e.d.stop(); err != nil {
		return res, err
	}

	rep := &report{w: w, o: o, e: e, ph: ph, setups: setups}
	m, err := rep.endToEnd()
	if err != nil {
		return res, err
	}
	if o.trace {
		if m, err = rep.perLayer(); err != nil {
			return res, err
		}
	}
	rep.print(out)
	res.Correct, res.Metrics = true, m
	return res, nil
}

// line is one human-readable report line.
type line struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *report) print(out io.Writer) {
	e := r.e
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%v\n", r.w.name, r.o.seed, r.o.seconds, r.o.trace)
	if r.w.ingestClients > 0 {
		var poolBytes int
		for _, n := range e.pool.pool {
			poolBytes += len(n.Text)
		}
		fmt.Fprintf(out, "  ingest: %d closed-loop client(s), %d notes per batch, style diversity %g, pool of %d notes (%.2f MiB) cycled under new patient ids from %d\n",
			r.w.ingestClients, r.w.batch, r.w.diversity, len(e.pool.pool), float64(poolBytes)/(1<<20), e.pool.firstID)
	}
	if r.w.preloadNotes > 0 {
		cache := "32 (default)"
		if r.w.cacheMB > 0 {
			cache = fmt.Sprint(r.w.cacheMB)
		}
		fmt.Fprintf(out, "  preload: %d notes (%.2f MiB), %d rows, %d blocks, %.2f MiB decoded, %d shards; -block-cache-mb %s\n",
			r.w.preloadNotes, float64(e.preBytes)/(1<<20), e.preRows, e.blocks, float64(e.decoded)/(1<<20), preloadShard, cache)
		if r.w.readClients > 0 {
			fmt.Fprintf(out, "  reads: %d closed-loop client(s), %.0f%% asks\n", r.w.readClients, 100*askShare)
		} else {
			fmt.Fprintf(out, "  reads: open loop at %g/s, %.0f%% asks\n", r.w.readRate, 100*askShare)
		}
	}
	for _, l := range r.lines {
		fmt.Fprintf(out, "  %-36s %14.4f %-9s %s\n", l.name, l.value, l.unit, l.note)
	}
}
