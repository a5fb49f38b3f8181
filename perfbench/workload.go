package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/records"
)

// workload is one traffic mix against medexd. The three mixes split the
// system's two paths: ingest loads the extraction pipeline and the WAL,
// query loads the planner, indexes and block cache, and mixed runs both
// at once under background compaction.
type workload struct {
	name string

	// Write side: closed-loop clients POSTing batches of fresh notes.
	ingestClients int
	batch         int
	diversity     float64 // records.GenOptions.StyleDiversity of ingested notes

	// Read side, over a warehouse built in set-up.
	preloadNotes int
	cacheMB      int     // -block-cache-mb; 0 keeps the daemon default
	readClients  int     // closed-loop read clients
	readRate     float64 // open-loop reads per second
}

// Sizes are chosen for a 2-CPU machine: at most two client goroutines
// and two connections, and at least 1000 samples of every operation
// that has a p99 within one run.
const (
	preloadNotes = 1700 // 30k rows, about 4.4 MiB of decoded blocks
	preloadShard = 4
	queryCacheMB = 1 // under a quarter of the preload's decoded blocks (checked in set-up)
	trainNotes   = 50
	poolNotes    = 1024 // distinct notes cycled, with fresh patient ids, by the ingest clients

	// preloadWorkers is fixed rather than GOMAXPROCS, so set-up does the
	// same work the same way on any machine.
	preloadWorkers = 2

	// mixedReadRate is about half of query's closed-loop read rate on
	// the commit that introduced the benchmark (2 CPUs); a 30 s run
	// then holds about 1000 asks and 1000 chart lookups.
	mixedReadRate = 75.0

	// askShare of reads are /v1/ask; the rest are /v1/patient/{id}.
	askShare  = 0.5
	askPool   = 8   // distinct asks of each kind
	rangeSpan = 0.4 // share of an attribute's values a range ask spans
	zipfS     = 1.2
)

var workloads = []workload{
	{name: "ingest", ingestClients: 2, batch: 8, diversity: 0},
	{name: "query", preloadNotes: preloadNotes, cacheMB: queryCacheMB, readClients: 2},
	{name: "mixed", ingestClients: 1, batch: 4, diversity: 0.5, preloadNotes: preloadNotes, readRate: mixedReadRate},
}

func workloadNamed(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Derived seeds keep the corpora of one run independent of each other
// while all following from --seed.
func preloadSeed(seed int64) int64 { return seed*8 + 1 }
func poolSeed(seed int64) int64    { return seed*8 + 2 }
func trainSeed(seed int64) int64   { return seed*8 + 3 }
func mixSeed(seed int64) int64     { return seed*8 + 4 }

func generate(n int, seed int64, diversity float64) []records.Record {
	opts := records.DefaultGenOptions()
	opts.N, opts.Seed, opts.StyleDiversity = n, seed, diversity
	return records.Generate(opts)
}

// renumber gives a generated note a new patient id by rewriting its
// "Patient:" line, so a pool of notes can be cycled without two charts
// sharing an id.
func renumber(r records.Record, id int) (records.Record, error) {
	const head = "Patient:"
	nl := strings.IndexByte(r.Text, '\n')
	if !strings.HasPrefix(r.Text, head) || nl < 0 {
		return records.Record{}, fmt.Errorf("generated note %d does not start with a %q line", r.ID, head)
	}
	return records.Record{ID: id, Text: fmt.Sprintf("%s  %d%s", head, id, r.Text[nl:])}, nil
}

// notePool is the ingest side's endless note sequence: note k (0-based)
// is pool[k % len(pool)] renumbered to patient firstID+k.
type notePool struct {
	pool    []records.Record
	firstID int
}

func (p notePool) note(k int) (records.Record, error) {
	return renumber(p.pool[k%len(p.pool)], p.firstID+k)
}

// ndjson encodes notes as the daemon's ingest body: id and text only,
// never the gold annotation.
func ndjson(notes []records.Record) ([]byte, error) {
	var b strings.Builder
	for _, n := range notes {
		line, err := json.Marshal(struct {
			ID   int    `json:"id"`
			Text string `json:"text"`
		}{n.ID, n.Text})
		if err != nil {
			return nil, err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// cond is one /v1/ask condition, in the daemon's JSON shape.
type cond struct {
	Attr string   `json:"attr"`
	Term string   `json:"term,omitempty"`
	Min  *float64 `json:"min,omitempty"`
	Max  *float64 `json:"max,omitempty"`
}

func (c cond) core() core.Cond { return core.Cond{Attr: c.Attr, Term: c.Term, Min: c.Min, Max: c.Max} }

// ask is one question of the read mix.
type ask struct {
	conds []cond
	body  []byte // the /v1/ask request body
}

// read is one operation of the read mix: an ask (index into the ask
// pool) or a chart lookup.
type read struct {
	ask     int // -1 for a chart lookup
	patient int64
}

const readSeqLen = 1 << 16

// readMix is the seeded read side: a pool of asks of three kinds and an
// endless sequence of reads over it and over Zipf-skewed patient ids.
type readMix struct {
	asks  []ask
	reads []read
}

func (m *readMix) at(i int) read { return m.reads[i%len(m.reads)] }

var (
	rangeAttrs = []string{records.AttrPulse, records.AttrAge, records.AttrWeight, records.AttrBloodPressure}
	termAttrs  = []string{"predefined past medical history", "predefined past surgical history", "medications", "smoking"}
)

// newReadMix draws the ask pool from values present in the preload, so
// no question is trivially empty, and keeps only terms the warehouse
// resolves to themselves, so the oracle can compare stored values
// directly.
func newReadMix(seed int64, charts [][]chartRow, resolve func(string) string) (*readMix, error) {
	rng := rand.New(rand.NewSource(seed))
	values := map[string][]chartRow{}
	for _, chart := range charts {
		for _, r := range chart {
			values[r.Attr] = append(values[r.Attr], r)
		}
	}
	// Every kind of ask cycles through the same attributes, and ranges
	// span a fixed share of the attribute's values, so the pool's cost
	// does not swing with the seed; the seed picks bounds and terms.
	rangeCond := func(i int) (cond, error) {
		attr := rangeAttrs[i%len(rangeAttrs)]
		vs := values[attr]
		if len(vs) == 0 {
			return cond{}, fmt.Errorf("preload has no %q values", attr)
		}
		nums := make([]float64, len(vs))
		for j, v := range vs {
			nums[j] = v.Numeric
		}
		sort.Float64s(nums)
		q := 0.1 + 0.5*rng.Float64()
		lo, hi := nums[int(q*float64(len(nums)))], nums[int((q+rangeSpan)*float64(len(nums)))]
		return cond{Attr: attr, Min: &lo, Max: &hi}, nil
	}
	termCond := func(i int) (cond, error) {
		attr := termAttrs[i%len(termAttrs)]
		vs := values[attr]
		for tries := 0; tries < 1000 && len(vs) > 0; tries++ {
			if t := vs[rng.Intn(len(vs))].Value; resolve(t) == t {
				return cond{Attr: attr, Term: t}, nil
			}
		}
		return cond{}, fmt.Errorf("preload has no self-resolving %q terms", attr)
	}
	m := &readMix{}
	for i := 0; i < askPool; i++ {
		for _, kind := range []string{"range", "term", "intersect"} {
			var conds []cond
			switch kind {
			case "range":
				c, err := rangeCond(i)
				if err != nil {
					return nil, err
				}
				conds = []cond{c}
			case "term":
				c, err := termCond(i)
				if err != nil {
					return nil, err
				}
				conds = []cond{c}
			case "intersect":
				a, err := rangeCond(i + 1)
				if err != nil {
					return nil, err
				}
				b, err := termCond(i + 1)
				if err != nil {
					return nil, err
				}
				conds = []cond{a, b}
			}
			body, err := json.Marshal(map[string][]cond{"conds": conds})
			if err != nil {
				return nil, err
			}
			m.asks = append(m.asks, ask{conds: conds, body: body})
		}
	}
	// Zipf ranks map through a permutation so the hot charts are spread
	// over the table instead of sharing the first blocks.
	perm := rng.Perm(len(charts))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(charts)-1))
	m.reads = make([]read, readSeqLen)
	for i := range m.reads {
		if rng.Float64() < askShare {
			m.reads[i] = read{ask: rng.Intn(len(m.asks))}
		} else {
			m.reads[i] = read{ask: -1, patient: int64(perm[zipf.Uint64()] + 1)}
		}
	}
	return m, nil
}

// resolver mirrors the warehouse's term resolution: the ontology's
// preferred name, else the normalized term.
func resolver(ont *ontology.Ontology) func(string) string {
	return func(term string) string {
		if c := ont.Lookup(term); c != nil {
			return c.Preferred
		}
		return lexicon.Normalize(term)
	}
}
