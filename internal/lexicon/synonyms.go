package lexicon

import "strings"

// synsets groups clinically interchangeable terms. Each inner slice is one
// synonym set; membership is symmetric. The sets cover the feature names
// and predefined history terms the paper's extraction tasks use, mirroring
// the manually specified synonym lists of §3.1 ("Currently, we are
// manually specifying the synonyms of the concept").
var synsets = [][]string{
	{"blood pressure", "bp"},
	{"pulse", "heart rate", "pulse rate"},
	{"temperature", "temp"},
	{"weight", "wt"},
	{"height", "ht"},
	{"menarche", "menarche age", "age at menarche"},
	{"gravida", "pregnancies", "number of pregnancies"},
	{"para", "live births", "number of live births", "births"},
	{"age", "years old", "year-old"},
	{"smoker", "tobacco user"},
	{"smoking", "tobacco use", "tobacco", "cigarette use", "cigarettes"},
	{"alcohol", "alcohol use", "etoh", "drinking"},
	{"hypertension", "high blood pressure", "htn"},
	{"hypercholesterolemia", "high cholesterol", "elevated cholesterol"},
	{"diabetes", "diabetes mellitus", "dm"},
	{"heart disease", "cardiac disease", "coronary artery disease", "cad"},
	{"cva", "stroke", "cerebrovascular accident"},
	{"mi", "myocardial infarction", "heart attack"},
	{"copd", "chronic obstructive pulmonary disease"},
	{"gerd", "gastroesophageal reflux disease", "reflux", "acid reflux"},
	{"cholecystectomy", "gallbladder removal", "gallbladder surgery"},
	{"hysterectomy", "uterus removal"},
	{"appendectomy", "appendix removal"},
	{"tonsillectomy", "tonsil removal", "tonsils removed"},
	{"laminectomy", "spinal decompression"},
	{"hernia repair", "herniorrhaphy", "hernia closure"},
	{"lumpectomy", "breast lump excision", "partial mastectomy"},
	{"biopsy", "tissue sampling"},
	{"cesarean section", "c-section", "cesarean delivery"},
	{"depression", "depressive disorder"},
	{"arthritis", "osteoarthritis", "joint disease"},
	{"asthma", "reactive airway disease"},
	{"arrhythmia", "irregular heartbeat", "cardiac arrhythmia"},
	{"bronchitis", "chronic bronchitis"},
	{"hypothyroidism", "underactive thyroid", "low thyroid"},
	{"anemia", "low blood count"},
	{"migraine", "migraine headache", "migraines"},
	{"obesity", "morbid obesity"},
	{"osteoporosis", "bone loss"},
	{"anxiety", "anxiety disorder"},
}

// synonymIndex maps each term to its synset id, built once at package
// initialization.
var synonymIndex = buildSynonymIndex()

func buildSynonymIndex() map[string]int {
	idx := make(map[string]int, len(synsets)*2)
	for i, set := range synsets {
		for _, term := range set {
			idx[term] = i
		}
	}
	return idx
}

// Synonyms returns the synonym set containing term (lower-cased), not
// including the term itself. The result is nil when the term is unknown.
func Synonyms(term string) []string {
	term = strings.ToLower(strings.TrimSpace(term))
	i, ok := synonymIndex[term]
	if !ok {
		return nil
	}
	var out []string
	for _, s := range synsets[i] {
		if s != term {
			out = append(out, s)
		}
	}
	return out
}

// ExpandWithSynonyms returns term plus all its synonyms plus inflected
// variants of each, deduplicated. This is the full recall-widening set the
// numeric-field extractor searches for a feature name.
func ExpandWithSynonyms(term string) []string {
	term = strings.ToLower(strings.TrimSpace(term))
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, v := range PhraseVariants(term) {
		add(v)
	}
	for _, syn := range Synonyms(term) {
		for _, v := range PhraseVariants(syn) {
			add(v)
		}
	}
	sortStrings(out)
	return out
}
