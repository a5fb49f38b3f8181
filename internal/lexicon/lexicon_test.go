package lexicon

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestLemmaNouns(t *testing.T) {
	cases := map[string]string{
		"pressures":      "pressure",
		"biopsies":       "biopsy",
		"masses":         "mass",
		"mammograms":     "mammogram",
		"children":       "child",
		"diagnoses":      "diagnosis",
		"lumpectomies":   "lumpectomy",
		"allergies":      "allergy",
		"diabetes":       "diabetes", // not a plural
		"pancreas":       "pancreas",
		"uterus":         "uterus",
		"pregnancies":    "pregnancy",
		"calcifications": "calcification",
		"lesions":        "lesion",
		"vertebrae":      "vertebra",
	}
	for in, want := range cases {
		if got := Lemma(in, Noun); got != want {
			t.Errorf("Lemma(%q, Noun) = %q, want %q", in, got, want)
		}
	}
}

func TestLemmaVerbs(t *testing.T) {
	cases := map[string]string{
		"denies":    "deny",
		"denied":    "deny",
		"deny":      "deny",
		"smoked":    "smoke",
		"smoking":   "smoke",
		"smokes":    "smoke",
		"quit":      "quit",
		"underwent": "undergo",
		"stopped":   "stop",
		"revealed":  "reveal",
		"was":       "be",
		"has":       "have",
		"drank":     "drink",
		"admitted":  "admit",
		"showed":    "show",
	}
	for in, want := range cases {
		if got := Lemma(in, Verb); got != want {
			t.Errorf("Lemma(%q, Verb) = %q, want %q", in, got, want)
		}
	}
}

func TestLemmaAny(t *testing.T) {
	// Any must resolve the paper's example: denies/denied/deny → same.
	forms := []string{"denies", "denied", "deny"}
	for _, f := range forms {
		if got := Lemma(f, Any); got != "deny" {
			t.Errorf("Lemma(%q, Any) = %q, want deny", f, got)
		}
	}
	if got := Lemma("", Any); got != "" {
		t.Errorf("Lemma empty = %q", got)
	}
	if got := Lemma("WORSE", Any); got != "bad" {
		t.Errorf("Lemma(WORSE) = %q, want bad", got)
	}
}

func TestNormalizePaperExample(t *testing.T) {
	// §3.2: "high blood pressures" → "blood high pressure".
	if got := Normalize("high blood pressures"); got != "blood high pressure" {
		t.Errorf("Normalize = %q, want %q", got, "blood high pressure")
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeWordsMatchesNormalize(t *testing.T) {
	if a, b := Normalize("midline hernia closures"), NormalizeWords([]string{"midline", "hernia", "closures"}); a != b {
		t.Errorf("Normalize %q != NormalizeWords %q", a, b)
	}
}

func TestPluralize(t *testing.T) {
	cases := map[string]string{
		"biopsy":    "biopsies",
		"mass":      "masses",
		"lesion":    "lesions",
		"box":       "boxes",
		"history":   "histories",
		"child":     "children",
		"mammogram": "mammograms",
	}
	for in, want := range cases {
		if got := Pluralize(in); got != want {
			t.Errorf("Pluralize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPastTenseAndGerund(t *testing.T) {
	if got := PastTense("smoke"); got != "smoked" {
		t.Errorf("PastTense(smoke) = %q", got)
	}
	if got := PastTense("deny"); got != "denied" {
		t.Errorf("PastTense(deny) = %q", got)
	}
	if got := PastTense("stop"); got != "stopped" {
		t.Errorf("PastTense(stop) = %q", got)
	}
	if got := Gerund("smoke"); got != "smoking" {
		t.Errorf("Gerund(smoke) = %q", got)
	}
	if got := Gerund("stop"); got != "stopping" {
		t.Errorf("Gerund(stop) = %q", got)
	}
	if got := Gerund("die"); got != "dying" {
		t.Errorf("Gerund(die) = %q", got)
	}
}

func TestVariantsRoundTrip(t *testing.T) {
	// Every generated variant must lemmatize back to the base word.
	for _, base := range []string{"biopsy", "lesion", "mass", "smoke", "deny"} {
		for _, v := range Variants(base) {
			if got := Lemma(v, Any); got != base {
				t.Errorf("Lemma(Variants(%q)=%q) = %q, want %q", base, v, got, base)
			}
		}
	}
}

func TestPhraseVariants(t *testing.T) {
	vs := PhraseVariants("live birth")
	found := false
	for _, v := range vs {
		if v == "live births" {
			found = true
		}
	}
	if !found {
		t.Errorf("PhraseVariants(live birth) = %v, missing plural", vs)
	}
	if PhraseVariants("") != nil {
		t.Error("PhraseVariants(\"\") should be nil")
	}
}

func TestSynonyms(t *testing.T) {
	syns := Synonyms("blood pressure")
	if len(syns) == 0 {
		t.Fatal("no synonyms for blood pressure")
	}
	if !slices.Contains(syns, "bp") {
		t.Error("bp should be a synonym of blood pressure")
	}
	if !slices.Contains(Synonyms("hypertension"), "high blood pressure") {
		t.Error("hypertension/high blood pressure")
	}
	if slices.Contains(Synonyms("pulse"), "weight") {
		t.Error("pulse/weight are not synonyms")
	}
	if Synonyms("zzzz-unknown") != nil {
		t.Error("unknown term should have nil synonyms")
	}
}

func TestSynonymSymmetry(t *testing.T) {
	for _, set := range synsets {
		for _, a := range set {
			for _, b := range set {
				if a != b && !slices.Contains(Synonyms(a), b) {
					t.Errorf("Synonyms(%q) lacks %q from its synset", a, b)
				}
			}
		}
	}
}

func TestExpandWithSynonyms(t *testing.T) {
	exp := ExpandWithSynonyms("pulse")
	want := map[string]bool{"pulse": false, "heart rate": false, "pulse rate": false, "pulses": false}
	for _, e := range exp {
		if _, ok := want[e]; ok {
			want[e] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("ExpandWithSynonyms(pulse) missing %q: %v", k, exp)
		}
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, e := range exp {
		if seen[e] {
			t.Errorf("duplicate %q in expansion", e)
		}
		seen[e] = true
	}
}
