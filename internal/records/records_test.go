package records

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/textproc"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultGenOptions())
	b := Generate(DefaultGenOptions())
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatalf("record %d differs between runs", i)
		}
	}
}

func TestGenerateSmokingQuotas(t *testing.T) {
	recs := Generate(DefaultGenOptions())
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.Gold.Smoking]++
	}
	// The paper: 28 never, 12 current, 5 former, 5 missing.
	if counts[SmokingNever] != 28 || counts[SmokingCurrent] != 12 || counts[SmokingFormer] != 5 || counts[""] != 5 {
		t.Errorf("smoking distribution = %v, want 28/12/5/5", counts)
	}
}

func TestGenerateSectionsParse(t *testing.T) {
	recs := Generate(DefaultGenOptions())
	for _, r := range recs[:10] {
		doc := textproc.Analyze(r.Text)
		for _, h := range []string{"Patient", "GYN History", "Past Medical History", "Social History", "Vitals"} {
			if _, ok := doc.Section(h); !ok {
				t.Errorf("record %d missing section %q", r.ID, h)
			}
		}
	}
}

func TestGenerateGoldComplete(t *testing.T) {
	recs := Generate(DefaultGenOptions())
	for _, r := range recs {
		for _, attr := range []string{AttrAge, AttrMenarche, AttrGravida, AttrPara, AttrBloodPressure, AttrPulse, AttrWeight} {
			if _, ok := r.Gold.Numeric[attr]; !ok {
				t.Errorf("record %d missing numeric gold %q", r.ID, attr)
			}
		}
		bp := r.Gold.Numeric[AttrBloodPressure]
		if bp.Value < 100 || bp.Value2 < 60 {
			t.Errorf("record %d has implausible BP %v", r.ID, bp)
		}
		if len(r.Gold.PastMedical) == 0 {
			t.Errorf("record %d has empty past medical history", r.ID)
		}
		if r.Gold.Shape == "" {
			t.Errorf("record %d missing shape", r.ID)
		}
	}
}

func TestGenerateFirstBirthConsistency(t *testing.T) {
	recs := Generate(DefaultGenOptions())
	for _, r := range recs {
		_, has := r.Gold.Numeric[AttrFirstBirthAge]
		para := r.Gold.Numeric[AttrPara].Value
		if has && para < 1 {
			t.Errorf("record %d has first-birth age but para=0", r.ID)
		}
		if !has && para >= 1 {
			t.Errorf("record %d para=%v but no first-birth age", r.ID, para)
		}
		if has && !strings.Contains(r.Text, "First live birth") {
			t.Errorf("record %d gold has first birth but text does not", r.ID)
		}
	}
}

func TestGenerateVitalsTextMatchesGold(t *testing.T) {
	recs := Generate(DefaultGenOptions())
	for _, r := range recs {
		bp := r.Gold.Numeric[AttrBloodPressure]
		want := fmt.Sprintf("%.0f/%.0f", bp.Value, bp.Value2)
		if !strings.Contains(r.Text, want) {
			t.Errorf("record %d: BP %s not in text", r.ID, want)
		}
	}
}

func TestGenerateStyleDiversityChangesText(t *testing.T) {
	opts := DefaultGenOptions()
	base := Generate(opts)
	opts.StyleDiversity = 1.0
	diverse := Generate(opts)
	changed := 0
	for i := range base {
		if base[i].Text != diverse[i].Text {
			changed++
		}
	}
	if changed < 40 {
		t.Errorf("style diversity changed only %d/50 records", changed)
	}
}

func TestGenerateMedicationsGold(t *testing.T) {
	recs := Generate(DefaultGenOptions())
	withMeds := 0
	for _, r := range recs {
		sec, ok := textproc.Analyze(r.Text).Section("Medications")
		if !ok {
			t.Fatalf("record %d missing Medications section", r.ID)
		}
		if len(r.Gold.Medications) == 0 {
			if sec.Body != "None." {
				t.Errorf("record %d: empty gold but body %q", r.ID, sec.Body)
			}
			continue
		}
		withMeds++
		if sec.Body == "None." {
			t.Errorf("record %d: gold %v but body None", r.ID, r.Gold.Medications)
		}
	}
	if withMeds < 25 {
		t.Errorf("only %d/50 records carry medications", withMeds)
	}
}

func TestGenerateBinaryFieldQuotas(t *testing.T) {
	recs := Generate(DefaultGenOptions())
	family := map[string]int{}
	drugs := map[string]int{}
	for _, r := range recs {
		family[r.Gold.FamilyBC]++
		drugs[r.Gold.DrugUse]++
	}
	if family[FamilyBCPositive] != 20 || family[FamilyBCNegative] != 30 {
		t.Errorf("family quota = %v, want 20/30", family)
	}
	if drugs[DrugUseNone] != 40 || drugs[DrugUsePositive] != 10 {
		t.Errorf("drug quota = %v, want 40/10", drugs)
	}
}

func TestGenerateFamilyHistoryTextConsistent(t *testing.T) {
	recs := Generate(DefaultGenOptions())
	for _, r := range recs {
		sec, ok := textproc.Analyze(r.Text).Section("Family History")
		if !ok {
			t.Fatalf("record %d missing family history", r.ID)
		}
		hasBC := strings.Contains(strings.ToLower(sec.Body), "breast cancer")
		switch r.Gold.FamilyBC {
		case FamilyBCPositive:
			if !hasBC {
				t.Errorf("record %d: positive gold but body %q", r.ID, sec.Body)
			}
		case FamilyBCNegative:
			// Negative phrasings may mention breast cancer ("Negative for
			// breast cancer") — but never an affected relative.
			for _, rel := range []string{"mother with", "aunt with", "sister with", "grandmother had"} {
				if strings.Contains(strings.ToLower(sec.Body), rel) {
					t.Errorf("record %d: negative gold but body %q", r.ID, sec.Body)
				}
			}
		}
	}
}

func TestWriteReadCorpus(t *testing.T) {
	dir := t.TempDir()
	recs := Generate(GenOptions{N: 5, Seed: 1})
	if err := WriteCorpus(dir, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("read %d records", len(got))
	}
	for i := range recs {
		if got[i].Text != recs[i].Text || got[i].Gold.Smoking != recs[i].Gold.Smoking {
			t.Errorf("record %d round-trip mismatch", i)
		}
	}
}

func TestSplitPredefined(t *testing.T) {
	pre, other := SplitPredefined(
		[]string{"diabetes", "chronic fatigue syndrome", "copd"},
		[]string{"diabetes", "copd", "asthma"},
	)
	if len(pre) != 2 || len(other) != 1 {
		t.Fatalf("pre=%v other=%v", pre, other)
	}
	if other[0] != "chronic fatigue syndrome" {
		t.Errorf("other = %v", other)
	}
}

func TestQuotaPlan(t *testing.T) {
	plan := quotaPlan(10, map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2})
	if len(plan) != 10 {
		t.Fatalf("plan length %d", len(plan))
	}
	counts := map[string]int{}
	for _, c := range plan {
		counts[c]++
	}
	if counts["a"] != 5 || counts["b"] != 3 || counts["c"] != 2 {
		t.Errorf("quota counts = %v", counts)
	}
}
