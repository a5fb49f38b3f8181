package ontology

import (
	"sort"
	"testing"

	"repro/internal/lexicon"
)

// Normalized forms that occur more than once in the embedded
// vocabulary, with the CUI Lookup answers for each. Captured from the
// store-backed ontology; the map-only ontology must keep every answer.
//
// crossConceptForms are forms owned by two or more concepts. The
// vocabulary has none: a new one must be added here deliberately, with
// the concept Lookup is meant to pick (a preferred-name owner beats a
// synonym owner, else the first concept in vocabulary order wins).
var crossConceptForms = map[string]string{}

// repeatedForms are forms one concept lists twice, a synonym that
// normalizes to the same string as the preferred name or an earlier
// synonym.
var repeatedForms = map[string]string{
	"migraine":      "C0017",
	"cataract":      "C0027",
	"kidney stone":  "C0041",
	"cyst ovarian":  "C0047",
	"arthralgia":    "C0215",
	"ace inhibitor": "C0310",
	"lymph node":    "C0403",
}

// formOwners maps every normalized surface form of the vocabulary to
// the CUIs listing it, once per listing.
func formOwners(synonyms bool) map[string][]string {
	owners := make(map[string][]string)
	for _, c := range All() {
		forms := []string{c.Preferred}
		if synonyms {
			forms = append(forms, c.Synonyms...)
		}
		for _, f := range forms {
			if norm := lexicon.Normalize(f); norm != "" {
				owners[norm] = append(owners[norm], c.CUI)
			}
		}
	}
	return owners
}

func TestLookupSharedForms(t *testing.T) {
	o := MustNew(Options{})
	cross, repeated := map[string]bool{}, map[string]bool{}
	for norm, cuis := range formOwners(true) {
		if len(cuis) < 2 {
			continue
		}
		distinct := append([]string(nil), cuis...)
		sort.Strings(distinct)
		if distinct[0] != distinct[len(distinct)-1] {
			cross[norm] = true
			want, ok := crossConceptForms[norm]
			if !ok {
				t.Errorf("form %q is shared by %v and has no pinned answer", norm, cuis)
				continue
			}
			if c := o.Lookup(norm); c == nil || c.CUI != want {
				t.Errorf("Lookup(%q) = %v, want %s", norm, c, want)
			}
			continue
		}
		repeated[norm] = true
		if c := o.Lookup(norm); c == nil || c.CUI != repeatedForms[norm] {
			t.Errorf("Lookup(%q) = %v, want %s", norm, c, repeatedForms[norm])
		}
	}
	for norm := range crossConceptForms {
		if !cross[norm] {
			t.Errorf("pinned cross-concept form %q is no longer shared", norm)
		}
	}
	for norm := range repeatedForms {
		if !repeated[norm] {
			t.Errorf("pinned repeated form %q is no longer repeated", norm)
		}
	}
}

// TestEveryFormResolvesToItsOwner: with synonyms every surface form
// finds its own concept; without them only the preferred names (and
// synonyms normalizing to a preferred name) resolve.
func TestEveryFormResolvesToItsOwner(t *testing.T) {
	prefOnly := formOwners(false)
	for _, synonyms := range []bool{true, false} {
		o := MustNew(Options{DisableSynonyms: !synonyms})
		for _, c := range All() {
			for i, f := range append([]string{c.Preferred}, c.Synonyms...) {
				got := o.Lookup(f)
				if synonyms || i == 0 || prefOnly[lexicon.Normalize(f)] != nil {
					if got == nil || got.CUI != c.CUI {
						t.Errorf("synonyms=%v: Lookup(%q) = %v, want %s", synonyms, f, got, c.CUI)
					}
				} else if got != nil {
					t.Errorf("synonyms=false: Lookup(%q) = %s, want nil", f, got.CUI)
				}
			}
		}
	}
}
