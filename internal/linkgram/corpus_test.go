package linkgram

import (
	"testing"

	"repro/internal/pos"
	"repro/internal/records"
	"repro/internal/textproc"
)

// TestCorpusVitalsAllParse is the property behind E1: every canonical
// vitals and GYN sentence in the default corpus parses, and the linkage
// is planar and connected.
func TestCorpusVitalsAllParse(t *testing.T) {
	recs := records.Generate(records.DefaultGenOptions())
	parsed, failed := 0, 0
	for _, r := range recs {
		doc := textproc.Analyze(r.Text)
		for _, header := range []string{"Vitals", "GYN History"} {
			sec, ok := doc.Section(header)
			if !ok {
				continue
			}
			for i, sent := range sec.Sentences() {
				lk, err := ParseSection(sec, i)
				if err != nil {
					failed++
					t.Errorf("record %d %s: no linkage for %q", r.ID, header, sent.Text)
					continue
				}
				parsed++
				verifyLinkageInvariants(t, sent.Text, lk)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no sentences parsed")
	}
	t.Logf("parsed %d sentences, %d failures", parsed, failed)
}

// TestCorpusDiverseParseRate checks that most (not necessarily all)
// style-diverse sentences still parse — the fallback patterns cover the
// rest, which is exactly the paper's §3.1 design.
func TestCorpusDiverseParseRate(t *testing.T) {
	opts := records.DefaultGenOptions()
	opts.StyleDiversity = 1.0
	recs := records.Generate(opts)
	parsed, total := 0, 0
	for _, r := range recs {
		sec, ok := textproc.Analyze(r.Text).Section("Vitals")
		if !ok {
			continue
		}
		for i, sent := range sec.Sentences() {
			total++
			if lk, err := ParseSection(sec, i); err == nil {
				parsed++
				verifyLinkageInvariants(t, sent.Text, lk)
			}
		}
	}
	if total == 0 {
		t.Fatal("no sentences found")
	}
	rate := float64(parsed) / float64(total)
	t.Logf("diverse vitals parse rate: %d/%d = %.0f%%", parsed, total, 100*rate)
	if rate < 0.5 {
		t.Errorf("parse rate %.0f%% too low for the fallback design to carry the rest", 100*rate)
	}
}

// verifyLinkageInvariants checks planarity, connectivity and degree.
func verifyLinkageInvariants(t *testing.T, text string, lk *Linkage) {
	t.Helper()
	for i, a := range lk.Links {
		for _, b := range lk.Links[i+1:] {
			if (a.Left < b.Left && b.Left < a.Right && a.Right < b.Right) ||
				(b.Left < a.Left && a.Left < b.Right && b.Right < a.Right) {
				t.Errorf("%q: crossing links %v × %v", text, a, b)
			}
		}
	}
	deg := make([]int, len(lk.Words))
	for _, l := range lk.Links {
		if l.Left < 0 || l.Right >= len(lk.Words) || l.Left >= l.Right {
			t.Fatalf("%q: malformed link %v", text, l)
		}
		deg[l.Left]++
		deg[l.Right]++
	}
	for i := 1; i < len(lk.Words); i++ {
		if deg[i] == 0 {
			t.Errorf("%q: disconnected word %q", text, lk.Words[i].Text)
		}
	}
	dist := lk.Graph(func(string) float64 { return 1 }).ShortestFrom(0)
	for i := range dist {
		if dist[i] > 1e17 {
			t.Errorf("%q: word %q unreachable from wall", text, lk.Words[i].Text)
		}
	}
}

// TestParseDeterministic: the same input always yields the same linkage.
func TestParseDeterministic(t *testing.T) {
	sents := textproc.SplitSentences("Blood pressure is 144/90, pulse of 84, and weight of 154 pounds.")
	tagged := pos.TagSentence(sents[0])
	first, err := Parse(tagged)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Parse(tagged)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Links) != len(first.Links) {
			t.Fatalf("run %d: %d links vs %d", i, len(again.Links), len(first.Links))
		}
		for j := range first.Links {
			if first.Links[j] != again.Links[j] {
				t.Fatalf("run %d: link %d differs: %v vs %v", i, j, first.Links[j], again.Links[j])
			}
		}
	}
}
