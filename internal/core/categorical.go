package core

import (
	"repro/internal/classify"
	"repro/internal/id3"
	"repro/internal/records"
	"repro/internal/textproc"
)

// CategoricalField specifies one categorical attribute: where its
// evidence lives, how features are extracted, and which classification
// backend labels it.
type CategoricalField struct {
	Attr    string
	Section string
	Options id3.FeatureOptions
	// Labels enumerates the attribute's value set, in canonical order.
	// The labeled coverage corpus is validated against this list: every
	// label must be represented.
	Labels []string
	// Backend is the classification backend; nil selects
	// classify.Default() (the paper's ID3 information-gain trees).
	Backend classify.Backend
	// Gold selects the gold label from a record ("" = not present; such
	// records are excluded, as the paper excludes the five subjects
	// without smoking information).
	Gold func(records.Gold) string
}

// WithBackend returns a copy of the field using the given backend.
func (f CategoricalField) WithBackend(b classify.Backend) CategoricalField {
	f.Backend = b
	return f
}

// backend resolves the field's backend, defaulting to ID3.
func (f CategoricalField) backend() classify.Backend {
	if f.Backend == nil {
		return classify.Default()
	}
	return f.Backend
}

// SmokingField is the paper's evaluated categorical attribute with its
// reported option settings: all parts of speech, any constituent,
// head-only off, lemma on.
func SmokingField() CategoricalField {
	return CategoricalField{
		Attr:    "smoking",
		Section: "Social History",
		Options: id3.DefaultOptions(),
		Labels:  []string{records.SmokingNever, records.SmokingFormer, records.SmokingCurrent},
		Gold:    func(g records.Gold) string { return g.Smoking },
	}
}

// AlcoholField is the paper's proposed extension: alcohol use with
// numeric Boolean threshold features at the manually specified threshold
// of 2 days per week.
func AlcoholField(numericFeatures bool) CategoricalField {
	opts := id3.DefaultOptions()
	if numericFeatures {
		opts.NumericThresholds = []float64{2}
	}
	return CategoricalField{
		Attr:    "alcohol",
		Section: "Social History",
		Options: opts,
		Labels:  []string{records.AlcoholNever, records.AlcoholSocial, records.AlcoholLight, records.AlcoholHeavy},
		Gold:    func(g records.Gold) string { return g.Alcohol },
	}
}

// FamilyBCField is one of the paper's unfinished binary categorical
// attributes: family history of breast cancer, positive or negative.
func FamilyBCField() CategoricalField {
	return CategoricalField{
		Attr:    "family breast cancer",
		Section: "Family History",
		Options: id3.DefaultOptions(),
		Labels:  []string{records.FamilyBCPositive, records.FamilyBCNegative},
		Gold:    func(g records.Gold) string { return g.FamilyBC },
	}
}

// DrugUseField is a second binary attribute: recreational drug use.
func DrugUseField() CategoricalField {
	return CategoricalField{
		Attr:    "drug use",
		Section: "Social History",
		Options: id3.DefaultOptions(),
		Labels:  []string{records.DrugUseNone, records.DrugUsePositive},
		Gold:    func(g records.Gold) string { return g.DrugUse },
	}
}

// ShapeField classifies patient shape from the physical examination.
func ShapeField() CategoricalField {
	return CategoricalField{
		Attr:    "shape",
		Section: "Physical examination",
		Options: id3.DefaultOptions(),
		Labels:  []string{records.ShapeThin, records.ShapeNormal, records.ShapeOverweight, records.ShapeObese},
		Gold:    func(g records.Gold) string { return g.Shape },
	}
}

// CategoricalFields lists the system's categorical attributes in
// canonical order (alcohol with the numeric threshold features on).
func CategoricalFields() []CategoricalField {
	return []CategoricalField{
		SmokingField(),
		AlcoholField(true),
		ShapeField(),
		FamilyBCField(),
		DrugUseField(),
	}
}

// Features extracts the field's ID3 feature map from an analyzed record,
// consuming the section's cached tag/parse analysis.
func (f CategoricalField) Features(doc *textproc.Document) map[string]bool {
	if sec, ok := doc.Section(f.Section); ok {
		return id3.FeaturesFromSection(sec, f.Options)
	}
	return map[string]bool{}
}

// Instance builds the field's classification view of an analyzed record:
// a lazy Boolean feature map (tree backends; POS-tags and parses the
// section through its memoized Document slots) and a lazy token stream
// (the vector backend; tokenization only). Each view is computed at most
// once however many models consult the instance, so two backends
// classifying the same shared Document still tag and parse each sentence
// exactly once between them.
func (f CategoricalField) Instance(doc *textproc.Document) classify.Instance {
	sec, ok := doc.Section(f.Section)
	if !ok {
		return classify.Instance{}
	}
	opts := f.Options
	return classify.NewInstance(
		func() map[string]bool { return id3.FeaturesFromSection(sec, opts) },
		func() []string { return sectionTokens(sec) },
	)
}

// sectionTokens is the vector backend's view: the lower-cased word and
// number tokens of the section, from the Document's memoized sentence
// analysis — no tagging, no parsing.
func sectionTokens(sec *textproc.DocSection) []string {
	var toks []string
	for _, sent := range sec.Sentences() {
		for _, t := range sent.Tokens {
			if t.Kind == textproc.Word || t.Kind == textproc.Number {
				toks = append(toks, t.Lower())
			}
		}
	}
	return toks
}

// Examples converts labeled records into training examples, skipping
// records whose gold label is absent. Each record is analyzed once; the
// per-example views are lazy, so an all-vector training run never pays
// for tagging or parsing.
func (f CategoricalField) Examples(recs []records.Record) []classify.Example {
	var out []classify.Example
	for _, r := range recs {
		label := f.Gold(r.Gold)
		if label == "" {
			continue
		}
		out = append(out, classify.Example{
			Instance: f.Instance(textproc.Analyze(r.Text)),
			Class:    label,
		})
	}
	return out
}

// CategoricalClassifier is a trained classifier for one field.
type CategoricalClassifier struct {
	Field CategoricalField
	Model classify.Model
}

// TrainCategorical trains the field's backend on labeled records.
func TrainCategorical(f CategoricalField, recs []records.Record) *CategoricalClassifier {
	return &CategoricalClassifier{Field: f, Model: f.backend().Train(f.Examples(recs))}
}

// Backend names the backend that trained the classifier (for stats and
// plan lines).
func (c *CategoricalClassifier) Backend() string { return c.Model.Backend() }

// ClassifyDoc labels one analyzed record, reusing its sentence analysis.
func (c *CategoricalClassifier) ClassifyDoc(doc *textproc.Document) string {
	return c.Model.Predict(c.Field.Instance(doc))
}

// CrossValidate runs the paper's protocol on the field with its backend:
// k-fold CV repeated `rounds` times with shuffles.
func (f CategoricalField) CrossValidate(recs []records.Record, k, rounds int, seed int64) classify.CVResult {
	return classify.CrossValidate(f.backend(), f.Examples(recs), k, rounds, seed)
}
