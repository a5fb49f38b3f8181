// Vitals: compare the three number–feature association strategies on
// sentences with several features, and show the linkage reasoning for the
// paper's Figure 1 sentence.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/linkgram"
	"repro/internal/records"
	"repro/internal/textproc"
)

func main() {
	log.SetFlags(0)

	sentence := "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds."
	sec := &textproc.DocSection{Section: textproc.Section{Body: sentence}}

	lk, err := linkgram.ParseSection(sec, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("linkage diagram (Figure 1):")
	fmt.Println(lk.Diagram())
	fmt.Println()

	// Show the shortest-distance reasoning for one number.
	g := lk.Graph(linkgram.DefaultWeights)
	for _, number := range []string{"144/90", "84", "98.3", "154"} {
		ni := indexOf(lk, number)
		dist := g.ShortestFrom(ni)
		fmt.Printf("distances from %s:", number)
		for _, feature := range []string{"pressure", "pulse", "temperature", "weight"} {
			fmt.Printf("  %s=%.0f", feature, dist[indexOf(lk, feature)])
		}
		fmt.Println()
	}

	// Strategy comparison on a style-diverse corpus.
	opts := records.DefaultGenOptions()
	opts.StyleDiversity = 0.8
	recs := records.Generate(opts)
	fmt.Println("\nnumeric extraction on a style-diverse corpus (50 records):")
	for _, s := range []core.Strategy{core.LinkGrammar, core.PatternOnly, core.ProximityOnly} {
		x := core.NewNumericExtractor(s)
		correct, wrong, missed := 0, 0, 0
		for _, r := range recs {
			got := x.ExtractDoc(textproc.Analyze(r.Text))
			for attr, gold := range r.Gold.Numeric {
				v, ok := got[attr]
				switch {
				case !ok:
					missed++
				case v.Value == gold.Value && (!v.Ratio || v.Value2 == gold.Value2):
					correct++
				default:
					wrong++
				}
			}
		}
		fmt.Printf("  %-16s correct=%d wrong=%d missed=%d\n", s, correct, wrong, missed)
	}
}

func indexOf(lk *linkgram.Linkage, text string) int {
	for i, w := range lk.Words {
		if w.Text == text {
			return i
		}
	}
	log.Fatalf("word %q not in linkage", text)
	return -1
}
