package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/id3"
	"repro/internal/linkgram"
	"repro/internal/ontology"
	"repro/internal/pos"
	"repro/internal/records"
	"repro/internal/textproc"
)

// totalSentences counts the sentences of every section of the document.
func totalSentences(doc *textproc.Document) uint64 {
	var n uint64
	for _, sec := range doc.Sections {
		n += uint64(len(sec.Sentences()))
	}
	return n
}

// TestProcessDocTagParseOnce is the acceptance check for the
// tag-once/parse-once Document contract: per ProcessDoc, every consumed
// sentence is POS-tagged at most once and link-parsed at most once, for
// any number of extractors and fields, and re-processing an already
// analyzed document runs zero tagging or parsing passes.
func TestProcessDocTagParseOnce(t *testing.T) {
	recs := records.Generate(records.GenOptions{N: 4, Seed: 13})
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.TrainSmoking(recs)

	for _, r := range recs {
		doc := textproc.Analyze(r.Text)
		maxSents := totalSentences(doc)

		tag0, parse0 := pos.TagPasses(), linkgram.ParsePasses()
		sys.ProcessDoc(doc)
		tag1, parse1 := pos.TagPasses(), linkgram.ParsePasses()
		if got := tag1 - tag0; got > maxSents {
			t.Errorf("record %d: ProcessDoc ran %d tag passes over %d sentences, want ≤%d",
				r.ID, got, maxSents, maxSents)
		}
		if got := parse1 - parse0; got > maxSents {
			t.Errorf("record %d: ProcessDoc ran %d parse passes over %d sentences, want ≤%d",
				r.ID, got, maxSents, maxSents)
		}

		// Re-running the full pipeline AND each extractor individually on
		// the same document must not tag or parse anything again: every
		// combination of extractors shares the cached per-sentence views.
		tag1, parse1 = pos.TagPasses(), linkgram.ParsePasses()
		sys.ProcessDoc(doc)
		sys.Numeric.ExtractDoc(doc)
		if sec, ok := doc.Section("Past Medical History"); ok {
			sys.Terms.ExtractSection(sec, ontology.PredefinedMedical)
		}
		if sec, ok := doc.Section("Past Surgical History"); ok {
			sys.Terms.ExtractSection(sec, ontology.PredefinedSurgical)
		}
		sys.Smoking.ClassifyDoc(doc)
		tag2, parse2 := pos.TagPasses(), linkgram.ParsePasses()
		if tag2 != tag1 {
			t.Errorf("record %d: re-processing tagged %d sentences again, want 0", r.ID, tag2-tag1)
		}
		if parse2 != parse1 {
			t.Errorf("record %d: re-processing parsed %d sentences again, want 0", r.ID, parse2-parse1)
		}
	}
}

// TestBareSectionSharesMemo: a bare body wrapped as a DocSection literal
// gets the Document memo too. The term extractor and the feature
// extractor reading the same section tag each sentence exactly once
// between them, and two constituent-filtered feature reads parse each
// sentence exactly once.
func TestBareSectionSharesMemo(t *testing.T) {
	x := &TermExtractor{Ont: ontology.MustNew(ontology.Options{}), ResolveSynonyms: true}
	sec := &textproc.DocSection{Section: textproc.Section{
		Body: "Significant for diabetes and asthma.  She quit smoking five years ago.  for with tobacco",
	}}
	n := uint64(len(sec.Sentences()))

	tag0, parse0 := pos.TagPasses(), linkgram.ParsePasses()
	terms := x.ExtractSection(sec, ontology.PredefinedMedical)
	feats := id3.FeaturesFromSection(sec, id3.DefaultOptions())
	if got := pos.TagPasses() - tag0; got != n {
		t.Errorf("terms + features tagged %d sentence(s), want each of the %d exactly once", got, n)
	}
	if len(terms) == 0 || !feats["quit"] {
		t.Errorf("shared section lost results: terms %v, features %v", terms, feats)
	}

	objects := id3.FeatureOptions{Nouns: true, Verbs: true, Object: true}
	id3.FeaturesFromSection(sec, objects)
	id3.FeaturesFromSection(sec, objects)
	if got := linkgram.ParsePasses() - parse0; got != n {
		t.Errorf("two constituent reads parsed %d sentence(s), want each of the %d exactly once", got, n)
	}
	if got := pos.TagPasses() - tag0; got != n {
		t.Errorf("constituent reads re-tagged: %d tag passes in all, want %d", got, n)
	}
}

// TestDocumentSharedConcurrently shares one analyzed Document across
// concurrent extractor goroutines: results must match the sequential
// ones, and the race detector must stay silent over the lazy tag/parse
// memoization.
func TestDocumentSharedConcurrently(t *testing.T) {
	recs := records.Generate(records.GenOptions{N: 3, Seed: 29})
	sys, err := NewSystem(Config{Strategy: LinkGrammar, ResolveSynonyms: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.TrainSmoking(recs)

	for _, r := range recs {
		doc := textproc.Analyze(r.Text)
		want := sys.ProcessDoc(textproc.Analyze(r.Text))

		const workers = 8
		got := make([]Extraction, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Odd workers run the full pipeline; even workers hit the
				// individual extractors, racing on the same cached slots.
				if w%2 == 0 {
					sys.Numeric.ExtractDoc(doc)
					if sec, ok := doc.Section("Past Medical History"); ok {
						sys.Terms.ExtractSection(sec, ontology.PredefinedMedical)
					}
					sys.Smoking.ClassifyDoc(doc)
				}
				got[w] = sys.ProcessDoc(doc)
			}(w)
		}
		wg.Wait()
		for w := range got {
			if !reflect.DeepEqual(got[w], want) {
				t.Errorf("record %d worker %d: concurrent extraction %+v != sequential %+v",
					r.ID, w, got[w], want)
			}
		}
	}
}
