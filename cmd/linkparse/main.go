// Command linkparse parses sentences with the link grammar parser and
// prints their linkage diagrams, regenerating the paper's Figure 1.
//
// Usage:
//
//	linkparse ["Sentence one." "Sentence two."]
//
// With no arguments it parses the Figure 1 sentence.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/linkgram"
	"repro/internal/textproc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("linkparse: ")

	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds."}
	}
	for _, text := range args {
		sec := &textproc.DocSection{Section: textproc.Section{Body: text}}
		for i, sent := range sec.Sentences() {
			lk, err := linkgram.ParseSection(sec, i)
			if err != nil {
				fmt.Printf("%s\n  (no linkage: %v — the extractor would fall back to patterns)\n\n", sent.Text, err)
				continue
			}
			fmt.Println(lk.Diagram())
			fmt.Println()
			for _, l := range lk.Links {
				fmt.Printf("  %-3s %s — %s\n", l.Label, lk.Words[l.Left].Text, lk.Words[l.Right].Text)
			}
			fmt.Println()
		}
	}
}
