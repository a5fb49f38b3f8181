package textproc

import "testing"

const docTestRecord = `Patient:  7
Chief Complaint:  Abnormal mammogram.
GYN History:  Menarche at age 12, gravida 2, para 2.
Vitals:  Blood pressure is 144/90, pulse of 84.
`

func TestAnalyzeMatchesSeparatePasses(t *testing.T) {
	doc := Analyze(docTestRecord)
	secs := SplitSections(docTestRecord)
	if len(doc.Sections) != len(secs) {
		t.Fatalf("Analyze found %d sections, SplitSections %d", len(doc.Sections), len(secs))
	}
	for i, s := range secs {
		ds := doc.Sections[i]
		if ds.Header != s.Header || ds.Body != s.Body || ds.Start != s.Start {
			t.Errorf("section %d: %+v != %+v", i, ds.Section, s)
		}
		want := SplitSentences(s.Body)
		got := ds.Sentences()
		if len(got) != len(want) {
			t.Errorf("section %q: %d sentences, want %d", s.Header, len(got), len(want))
			continue
		}
		for j := range want {
			if got[j].Text != want[j].Text {
				t.Errorf("section %q sentence %d: %q != %q", s.Header, j, got[j].Text, want[j].Text)
			}
		}
	}
}

func TestAnalyzeIsOnePassPerSection(t *testing.T) {
	s0, t0 := AnalysisCounts()
	doc := Analyze(docTestRecord)
	s1, t1 := AnalysisCounts()
	if got := s1 - s0; got != 1 {
		t.Errorf("Analyze ran %d section splits, want 1", got)
	}
	if got := t1 - t0; got != 0 {
		t.Errorf("Analyze ran %d tokenize passes, want 0 (sections are lazy)", got)
	}
	// First access tokenizes the section body once; repeated access — and
	// repeated access through Section — reuses the memoized result.
	for _, sec := range doc.Sections {
		sec.Sentences()
	}
	_, t2 := AnalysisCounts()
	if got, want := t2-t1, uint64(len(doc.Sections)); got != want {
		t.Errorf("first access ran %d tokenize passes over %d sections, want %d", got, len(doc.Sections), want)
	}
	for _, sec := range doc.Sections {
		sec.Sentences()
		if s, ok := doc.Section(sec.Header); ok {
			s.Sentences()
		}
	}
	s3, t3 := AnalysisCounts()
	if t3 != t2 || s3 != s1 {
		t.Errorf("repeated access re-ran analysis: %d section splits, %d tokenizes", s3-s1, t3-t2)
	}
}

func TestDocumentSectionLookup(t *testing.T) {
	doc := Analyze(docTestRecord)
	sec, ok := doc.Section("gyn history")
	if !ok || sec.Header != "GYN History" {
		t.Fatalf("Section(gyn history) = %v, %v", sec, ok)
	}
	if len(sec.Sentences()) == 0 {
		t.Error("GYN History has no analyzed sentences")
	}
	if _, ok := doc.Section("Allergies"); ok {
		t.Error("found a section the record does not contain")
	}
	if vitals, ok := doc.Section("Vitals"); !ok || len(vitals.Sentences()) == 0 {
		t.Error("Vitals has no analyzed sentences")
	}
}

func TestAnalyzeHeaderlessText(t *testing.T) {
	doc := Analyze("Just one fragment without any header.")
	if len(doc.Sections) != 1 || doc.Sections[0].Header != "" {
		t.Fatalf("sections = %+v", doc.Sections)
	}
	if len(doc.Sections[0].Sentences()) != 1 {
		t.Errorf("sentences = %d, want 1", len(doc.Sections[0].Sentences()))
	}
	if empty := Analyze(""); len(empty.Sections) != 0 {
		t.Errorf("empty text → %d sections", len(empty.Sections))
	}
}
