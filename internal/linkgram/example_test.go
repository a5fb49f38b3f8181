package linkgram_test

import (
	"fmt"

	"repro/internal/linkgram"
	"repro/internal/textproc"
)

// Parse the core of the paper's Figure 1 sentence and list its links.
// A bare body is analyzed by wrapping it as a section.
func ExampleParseSection() {
	sec := &textproc.DocSection{Section: textproc.Section{Body: "Blood pressure is 144/90."}}
	lk, err := linkgram.ParseSection(sec, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, l := range lk.Links {
		fmt.Printf("%s(%s, %s)\n", l.Label, lk.Words[l.Left].Text, lk.Words[l.Right].Text)
	}
	// Output:
	// W(LEFT-WALL, is)
	// S(pressure, is)
	// AN(Blood, pressure)
	// O(is, 144/90)
}

// The §3.1 association: the number closest in linkage distance to the
// feature keyword is its value.
func ExampleLinkage_Graph() {
	sec := &textproc.DocSection{Section: textproc.Section{Body: "Blood pressure is 144/90, pulse of 84."}}
	lk, err := linkgram.ParseSection(sec, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	var pulse, v84, v144 int
	for i, w := range lk.Words {
		switch w.Text {
		case "pulse":
			pulse = i
		case "84":
			v84 = i
		case "144/90":
			v144 = i
		}
	}
	dist := lk.Graph(linkgram.DefaultWeights).ShortestFrom(pulse)
	fmt.Println(dist[v84] < dist[v144])
	// Output: true
}
