package linkgram

import (
	"strings"
	"testing"

	"repro/internal/pos"
	"repro/internal/textproc"
)

func parseText(t *testing.T, text string) *Linkage {
	t.Helper()
	sents := textproc.SplitSentences(text)
	if len(sents) != 1 {
		t.Fatalf("want 1 sentence, got %d for %q", len(sents), text)
	}
	lk, err := Parse(pos.TagSentence(sents[0]))
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	return lk
}

// hasLink reports whether the linkage contains a link with the given label
// between the two words (by surface text, case-insensitive).
func hasLink(lk *Linkage, label, left, right string) bool {
	for _, l := range lk.Links {
		if l.Label != label {
			continue
		}
		lw := strings.ToLower(lk.Words[l.Left].Text)
		rw := strings.ToLower(lk.Words[l.Right].Text)
		if lw == strings.ToLower(left) && rw == strings.ToLower(right) {
			return true
		}
	}
	return false
}

func TestParseFigure1Core(t *testing.T) {
	// The core of the paper's Figure 1 sentence.
	lk := parseText(t, "Blood pressure is 144/90.")
	if !hasLink(lk, "AN", "Blood", "pressure") {
		t.Errorf("missing AN(Blood, pressure): %s", lk)
	}
	if !hasLink(lk, "S", "pressure", "is") {
		t.Errorf("missing S(pressure, is): %s", lk)
	}
	if !hasLink(lk, "O", "is", "144/90") {
		t.Errorf("missing O(is, 144/90): %s", lk)
	}
}

func TestParseFigure1FullSentence(t *testing.T) {
	lk := parseText(t, "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.")
	// Each number must be reachable, and the phrase-internal links present.
	if !hasLink(lk, "M", "pulse", "of") {
		t.Errorf("missing M(pulse, of): %s", lk)
	}
	if !hasLink(lk, "J", "of", "84") {
		t.Errorf("missing J(of, 84): %s", lk)
	}
	if !hasLink(lk, "M", "temperature", "of") {
		t.Errorf("missing M(temperature, of): %s", lk)
	}
	if !hasLink(lk, "J", "of", "98.3") {
		t.Errorf("missing J(of, 98.3): %s", lk)
	}
	if !hasLink(lk, "M", "weight", "of") {
		t.Errorf("missing M(weight, of): %s", lk)
	}
}

func TestParsePlanarityAndConnectivity(t *testing.T) {
	sentences := []string{
		"Blood pressure is 144/90.",
		"She quit smoking five years ago.",
		"She is currently a smoker.",
		"She has never smoked.",
		"Pulse of 96.",
		"Menarche at age 10, gravida 4, para 3.",
		"Blood pressure is 142/78, pulse of 96, and weight of 211.",
		"She denies tobacco use.",
		"Smoking history, 15 years.",
	}
	for _, text := range sentences {
		lk := parseText(t, text)
		checkPlanar(t, text, lk)
		checkConnected(t, text, lk)
		checkDegrees(t, text, lk)
	}
}

// checkPlanar verifies no two links cross.
func checkPlanar(t *testing.T, text string, lk *Linkage) {
	t.Helper()
	for i, a := range lk.Links {
		for _, b := range lk.Links[i+1:] {
			if a.Left < b.Left && b.Left < a.Right && a.Right < b.Right {
				t.Errorf("%q: crossing links %v and %v", text, a, b)
			}
			if b.Left < a.Left && a.Left < b.Right && b.Right < a.Right {
				t.Errorf("%q: crossing links %v and %v", text, a, b)
			}
		}
	}
}

// checkConnected verifies every parse word is reachable from the wall.
func checkConnected(t *testing.T, text string, lk *Linkage) {
	t.Helper()
	dist := lk.Graph(func(string) float64 { return 1 }).ShortestFrom(0)
	for i, d := range dist {
		if d > 1e17 {
			t.Errorf("%q: word %q unreachable from wall", text, lk.Words[i].Text)
		}
	}
}

// checkDegrees verifies every non-wall word participates in >= 1 link.
func checkDegrees(t *testing.T, text string, lk *Linkage) {
	t.Helper()
	deg := make([]int, len(lk.Words))
	for _, l := range lk.Links {
		deg[l.Left]++
		deg[l.Right]++
	}
	for i := 1; i < len(lk.Words); i++ {
		if deg[i] == 0 {
			t.Errorf("%q: word %q has no links", text, lk.Words[i].Text)
		}
	}
}

func TestParseFragmentFails(t *testing.T) {
	// "blood pressure: 144/90" — the paper notes the Link Grammar Parser
	// cannot parse such fragments; ours must reject them too so the
	// extractor can fall back to patterns. The colon splits oddly, so
	// construct tokens directly.
	sents := textproc.SplitSentences("None.")
	if len(sents) != 0 {
		// "None." may produce a sentence; it must not produce a linkage.
		if _, err := Parse(pos.TagSentence(sents[0])); err == nil {
			t.Error("expected no linkage for bare 'None.'")
		}
	}
}

func TestParseDistanceAssociation(t *testing.T) {
	// The heart of §3.1: in the multi-feature vitals sentence each number
	// must be graph-closest to its own feature keyword.
	lk := parseText(t, "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.")
	g := lk.Graph(DefaultWeights)
	pairs := []struct{ number, feature string }{
		{"144/90", "pressure"},
		{"84", "pulse"},
		{"98.3", "temperature"},
		{"154", "weight"},
	}
	features := []string{"pressure", "pulse", "temperature", "weight"}
	for _, pr := range pairs {
		ni := wordIndex(lk, pr.number)
		if ni < 0 {
			t.Fatalf("number %q not in parse", pr.number)
		}
		dist := g.ShortestFrom(ni)
		best, bestD := "", 1e18
		for _, f := range features {
			fi := wordIndex(lk, f)
			if fi < 0 {
				t.Fatalf("feature %q not in parse", f)
			}
			if dist[fi] < bestD {
				best, bestD = f, dist[fi]
			}
		}
		if best != pr.feature {
			t.Errorf("number %s associates with %q (d=%.1f), want %q", pr.number, best, bestD, pr.feature)
		}
	}
}

func wordIndex(lk *Linkage, text string) int {
	for i, w := range lk.Words {
		if strings.EqualFold(w.Text, text) {
			return i
		}
	}
	return -1
}

func TestParseTooLong(t *testing.T) {
	long := strings.Repeat("pressure is 120 and ", 20) + "pulse is 80."
	sents := textproc.SplitSentences(long)
	if _, err := Parse(pos.TagSentence(sents[0])); err == nil {
		t.Error("expected rejection of over-long sentence")
	}
}

func TestDiagramRendering(t *testing.T) {
	lk := parseText(t, "Blood pressure is 144/90.")
	d := lk.Diagram()
	if !strings.Contains(d, "Blood pressure is 144/90") {
		t.Errorf("diagram missing word line:\n%s", d)
	}
	for _, label := range []string{"AN", "S", "O"} {
		if !strings.Contains(d, label) {
			t.Errorf("diagram missing label %s:\n%s", label, d)
		}
	}
}

func TestGraphUnreachable(t *testing.T) {
	g := &Graph{n: 2, adj: make([][]edge, 2)}
	dist := g.ShortestFrom(0)
	if dist[1] != dist[1] || dist[1] < 1e17 { // +Inf check without math import
		t.Errorf("expected +Inf for unreachable, got %v", dist[1])
	}
	if out := g.ShortestFrom(-1); out[0] < 1e17 {
		t.Error("invalid source should yield all +Inf")
	}
}

func TestListNamesOrder(t *testing.T) {
	in := newInterner()
	l := in.fromNearFirst([]connID{cS, cW})
	got := listNames(l)
	if len(got) != 2 || got[0] != "S" || got[1] != "W" {
		t.Errorf("listNames = %v, want [S W]", got)
	}
}

func TestParseWordTokenMapping(t *testing.T) {
	sents := textproc.SplitSentences("Pulse of 96.")
	lk, err := Parse(pos.TagSentence(sents[0]))
	if err != nil {
		t.Fatal(err)
	}
	tagged := pos.TagSentence(sents[0])
	for i := 1; i < len(lk.Words); i++ {
		ti := lk.Words[i].TokenIndex
		if ti < 0 || ti >= len(tagged) {
			t.Fatalf("bad token index %d", ti)
		}
		if tagged[ti].Text != lk.Words[i].Text {
			t.Errorf("token %q != parse word %q", tagged[ti].Text, lk.Words[i].Text)
		}
	}
	if lk.WordIndexForToken(-5) != -1 && lk.Words[lk.WordIndexForToken(-5)].TokenIndex != -5 {
		t.Error("WordIndexForToken(-5) should be -1 or wall")
	}
}
