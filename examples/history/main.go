// History: medical-term extraction against the ontology, showing the
// candidate-pattern mechanics of §3.2 and the effect of synonym
// resolution on predefined surgical history (the paper's Table 1 error
// analysis).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/ontology"
	"repro/internal/textproc"
)

func main() {
	log.SetFlags(0)

	ont, err := ontology.New(ontology.Options{})
	if err != nil {
		log.Fatal(err)
	}

	body := "Significant for a postoperative CVA after undergoing a cholecystectomy and a midline hernia closure."
	fmt.Printf("input: %s\n\n", body)

	// Normalization, the paper's example included.
	for _, term := range []string{"high blood pressures", "midline hernia closure"} {
		fmt.Printf("normalize(%q) = %q\n", term, lexicon.Normalize(term))
	}
	fmt.Println()

	// A bare body is read by the extractors as an analyzed section.
	x := &core.TermExtractor{Ont: ont, ResolveSynonyms: true}
	sec := &textproc.DocSection{Section: textproc.Section{Body: body}}
	for _, term := range x.ExtractSection(sec, ontology.PredefinedSurgical) {
		kind := "other"
		if term.Predefined {
			kind = "predefined"
		}
		fmt.Printf("  %-28s → %-26s [%s, %s]\n", term.Surface, term.Concept.Preferred, term.Concept.Type, kind)
	}

	// Synonym resolution: the difference behind Table 1's predefined
	// surgical recall.
	body2 := "Gallbladder removal and tubes tied."
	fmt.Printf("\ninput: %s\n", body2)
	sec2 := &textproc.DocSection{Section: textproc.Section{Body: body2}}
	for _, resolve := range []bool{false, true} {
		x := &core.TermExtractor{Ont: ont, ResolveSynonyms: resolve}
		pre, other := core.SplitTerms(x.ExtractSection(sec2, ontology.PredefinedSurgical))
		fmt.Printf("  synonym resolution %-5v → predefined=%v other=%v\n", resolve, pre, other)
	}
}
