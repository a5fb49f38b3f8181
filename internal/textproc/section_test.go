package textproc

import (
	"strings"
	"testing"
)

const sampleRecord = `Patient:  2
Chief Complaint:  Abnormal mammogram.
History of Present Illness:  Ms. 2 is a 50-year-old woman who underwent a screening mammogram.
GYN History:  Menarche at age 10, gravida 4, para 3.
Past Medical History:  Significant for diabetes, heart disease, high blood pressure.
Past Surgical History:  Cervical laminectomy.
Medications:  Aspirin, hydrochlorothiazide, Lipitor.
Allergies:  Penicillin, ACE inhibitors, and latex.
Social History:  Smoking history, 15 years.  Alcohol use, occasional.
Family History:  Mother with breast cancer, diagnosed at age 52.
Review of Systems:  Significant for back pain and arthritis complaints.
Physical examination:  Reveals an overweight woman in no apparent distress.
Vitals:  Blood pressure is 142/78, pulse of 96, and weight of 211.
HEENT:  PERRLA.
Neck:  There is no cervical or supraclavicular lymphadenopathy.
Chest:  Clear to auscultation anteriorly, posteriorly, and bilaterally.
Heart:  S1 S2, regular, and no murmurs.
Abdomen:  Soft, nontender, and no masses.
Examination of Breasts:  Shows good symmetry bilaterally.
`

func TestSplitSectionsFullRecord(t *testing.T) {
	secs := SplitSections(sampleRecord)
	if len(secs) != 19 {
		t.Fatalf("got %d sections, want 19: %v", len(secs), headerNames(secs))
	}
	for i, h := range StandardHeaders {
		if secs[i].Header != h {
			t.Errorf("section[%d].Header = %q, want %q", i, secs[i].Header, h)
		}
	}
}

func TestSplitSectionsBodies(t *testing.T) {
	doc := Analyze(sampleRecord)
	vitals, ok := doc.Section("Vitals")
	if !ok {
		t.Fatal("Vitals section not found")
	}
	if !strings.Contains(vitals.Body, "142/78") {
		t.Errorf("Vitals body = %q", vitals.Body)
	}
	pmh, ok := doc.Section("Past Medical History")
	if !ok {
		t.Fatal("Past Medical History not found")
	}
	if !strings.HasPrefix(pmh.Body, "Significant for diabetes") {
		t.Errorf("PMH body = %q", pmh.Body)
	}
	// Body must not bleed into the next section.
	if strings.Contains(pmh.Body, "laminectomy") {
		t.Errorf("PMH body contains next section: %q", pmh.Body)
	}
}

func TestSplitSectionsCaseInsensitiveFind(t *testing.T) {
	doc := Analyze(sampleRecord)
	if _, ok := doc.Section("vitals"); !ok {
		t.Error("case-insensitive Document.Section failed")
	}
	if _, ok := doc.Section("Nonexistent"); ok {
		t.Error("Document.Section found a nonexistent header")
	}
}

func TestSplitSectionsHeaderMidLineIgnored(t *testing.T) {
	// "Heart" appearing mid-sentence must not open a section.
	rec := "Review of Systems:  Heart issues were denied. Heart rate normal.\nVitals:  Pulse of 80.\n"
	secs := SplitSections(rec)
	if len(secs) != 2 {
		t.Fatalf("got %d sections, want 2: %v", len(secs), headerNames(secs))
	}
	if secs[0].Header != "Review of Systems" || secs[1].Header != "Vitals" {
		t.Errorf("headers = %v", headerNames(secs))
	}
}

func TestSplitSectionsNoHeaders(t *testing.T) {
	secs := SplitSections("free text with no headers at all")
	if len(secs) != 1 || secs[0].Header != "" {
		t.Fatalf("got %+v, want single headerless section", secs)
	}
	if got := SplitSections("   "); len(got) != 0 {
		t.Errorf("blank record produced sections: %+v", got)
	}
}

func TestSplitSectionsPreamble(t *testing.T) {
	rec := "TRANSCRIPTION COPY\nPatient:  7\nVitals:  Pulse of 70.\n"
	secs := SplitSections(rec)
	if len(secs) != 3 {
		t.Fatalf("got %d sections, want 3 (preamble + 2): %v", len(secs), headerNames(secs))
	}
	if secs[0].Header != "" || secs[0].Body != "TRANSCRIPTION COPY" {
		t.Errorf("preamble section = %+v", secs[0])
	}
}

func headerNames(secs []Section) []string {
	out := make([]string, len(secs))
	for i, s := range secs {
		out[i] = s.Header
	}
	return out
}
