// Package ontology is the UMLS substitute: an embedded medical concept
// vocabulary with normalized-string lookup, synonym expansion, semantic
// types, and a coverage knob that emulates ontology incompleteness (the
// cause the paper assigns to its term-extraction errors).
//
// Where the paper installed UMLS in a local DB2 database read over JDBC,
// the vocabulary here is loaded into in-memory maps keyed by normalized
// string.
package ontology

// SemType is the semantic type of a concept, the coarse UMLS-style
// grouping the extractor uses to route terms to attributes.
type SemType string

// Semantic types used by the extraction tasks.
const (
	Disease    SemType = "Disease or Syndrome"
	Procedure  SemType = "Therapeutic or Preventive Procedure"
	Finding    SemType = "Finding"
	Medication SemType = "Pharmacologic Substance"
	Anatomy    SemType = "Body Part"
)

// Concept is one vocabulary entry.
type Concept struct {
	CUI       string   // concept unique identifier, UMLS-style
	Preferred string   // preferred name
	Synonyms  []string // surface synonyms (preferred name excluded)
	Type      SemType
}

// seedConcepts is the embedded vocabulary. CUIs are stable synthetic
// identifiers. The set covers the conditions, procedures and findings
// that occur in breast-clinic consultation notes, plus enough general
// internal-medicine vocabulary to exercise ontology-coverage experiments.
var seedConcepts = []Concept{
	// ---- Diseases / syndromes ----
	{CUI: "C0001", Preferred: "diabetes", Synonyms: []string{"diabetes mellitus", "dm", "type 2 diabetes", "adult onset diabetes"}, Type: Disease},
	{CUI: "C0002", Preferred: "heart disease", Synonyms: []string{"cardiac disease", "coronary artery disease", "cad", "coronary disease"}, Type: Disease},
	{CUI: "C0003", Preferred: "hypertension", Synonyms: []string{"high blood pressure", "htn", "elevated blood pressure"}, Type: Disease},
	{CUI: "C0004", Preferred: "hypercholesterolemia", Synonyms: []string{"high cholesterol", "elevated cholesterol", "dyslipidemia"}, Type: Disease},
	{CUI: "C0005", Preferred: "bronchitis", Synonyms: []string{"chronic bronchitis"}, Type: Disease},
	{CUI: "C0006", Preferred: "arrhythmia", Synonyms: []string{"cardiac arrhythmia", "irregular heartbeat", "atrial fibrillation"}, Type: Disease},
	{CUI: "C0007", Preferred: "depression", Synonyms: []string{"depressive disorder", "major depression"}, Type: Disease},
	{CUI: "C0008", Preferred: "asthma", Synonyms: []string{"reactive airway disease"}, Type: Disease},
	{CUI: "C0009", Preferred: "arthritis", Synonyms: []string{"osteoarthritis", "degenerative joint disease", "rheumatoid arthritis"}, Type: Disease},
	{CUI: "C0010", Preferred: "copd", Synonyms: []string{"chronic obstructive pulmonary disease", "emphysema"}, Type: Disease},
	{CUI: "C0011", Preferred: "postoperative cva", Synonyms: []string{"cva", "stroke", "cerebrovascular accident"}, Type: Disease},
	{CUI: "C0012", Preferred: "myocardial infarction", Synonyms: []string{"mi", "heart attack"}, Type: Disease},
	{CUI: "C0013", Preferred: "gerd", Synonyms: []string{"gastroesophageal reflux disease", "acid reflux", "reflux disease"}, Type: Disease},
	{CUI: "C0014", Preferred: "hypothyroidism", Synonyms: []string{"underactive thyroid", "low thyroid"}, Type: Disease},
	{CUI: "C0015", Preferred: "hyperthyroidism", Synonyms: []string{"overactive thyroid", "graves disease"}, Type: Disease},
	{CUI: "C0016", Preferred: "anemia", Synonyms: []string{"iron deficiency anemia", "low blood count"}, Type: Disease},
	{CUI: "C0017", Preferred: "migraine", Synonyms: []string{"migraine headache", "migraines"}, Type: Disease},
	{CUI: "C0018", Preferred: "obesity", Synonyms: []string{"morbid obesity"}, Type: Disease},
	{CUI: "C0019", Preferred: "osteoporosis", Synonyms: []string{"bone loss", "osteopenia"}, Type: Disease},
	{CUI: "C0020", Preferred: "anxiety", Synonyms: []string{"anxiety disorder", "generalized anxiety"}, Type: Disease},
	{CUI: "C0021", Preferred: "breast cancer", Synonyms: []string{"breast carcinoma", "carcinoma of the breast", "mammary carcinoma"}, Type: Disease},
	{CUI: "C0022", Preferred: "pneumonia", Synonyms: []string{"lung infection"}, Type: Disease},
	{CUI: "C0023", Preferred: "peptic ulcer", Synonyms: []string{"stomach ulcer", "duodenal ulcer", "gastric ulcer"}, Type: Disease},
	{CUI: "C0024", Preferred: "ulcerative colitis", Synonyms: []string{"colitis"}, Type: Disease},
	{CUI: "C0025", Preferred: "diverticulitis", Synonyms: []string{"diverticular disease"}, Type: Disease},
	{CUI: "C0026", Preferred: "glaucoma", Synonyms: nil, Type: Disease},
	{CUI: "C0027", Preferred: "cataract", Synonyms: []string{"cataracts"}, Type: Disease},
	{CUI: "C0028", Preferred: "eczema", Synonyms: []string{"atopic dermatitis"}, Type: Disease},
	{CUI: "C0029", Preferred: "psoriasis", Synonyms: nil, Type: Disease},
	{CUI: "C0030", Preferred: "gout", Synonyms: []string{"gouty arthritis"}, Type: Disease},
	{CUI: "C0031", Preferred: "fibromyalgia", Synonyms: nil, Type: Disease},
	{CUI: "C0032", Preferred: "neuropathy", Synonyms: []string{"peripheral neuropathy", "diabetic neuropathy"}, Type: Disease},
	{CUI: "C0033", Preferred: "epilepsy", Synonyms: []string{"seizure disorder", "seizures"}, Type: Disease},
	{CUI: "C0034", Preferred: "hepatitis", Synonyms: []string{"hepatitis c", "hepatitis b"}, Type: Disease},
	{CUI: "C0035", Preferred: "cirrhosis", Synonyms: []string{"liver cirrhosis"}, Type: Disease},
	{CUI: "C0036", Preferred: "congestive heart failure", Synonyms: []string{"chf", "heart failure"}, Type: Disease},
	{CUI: "C0037", Preferred: "sleep apnea", Synonyms: []string{"obstructive sleep apnea", "osa"}, Type: Disease},
	{CUI: "C0038", Preferred: "lupus", Synonyms: []string{"systemic lupus erythematosus", "sle"}, Type: Disease},
	{CUI: "C0039", Preferred: "sarcoidosis", Synonyms: nil, Type: Disease},
	{CUI: "C0040", Preferred: "multiple sclerosis", Synonyms: []string{"ms"}, Type: Disease},
	{CUI: "C0041", Preferred: "kidney stones", Synonyms: []string{"renal calculi", "nephrolithiasis", "kidney stone"}, Type: Disease},
	{CUI: "C0042", Preferred: "urinary tract infection", Synonyms: []string{"uti", "bladder infection"}, Type: Disease},
	{CUI: "C0043", Preferred: "sinusitis", Synonyms: []string{"chronic sinusitis", "sinus infection"}, Type: Disease},
	{CUI: "C0044", Preferred: "allergic rhinitis", Synonyms: []string{"hay fever", "seasonal allergies"}, Type: Disease},
	{CUI: "C0045", Preferred: "insomnia", Synonyms: []string{"sleep disturbance"}, Type: Disease},
	{CUI: "C0046", Preferred: "fibrocystic breast disease", Synonyms: []string{"fibrocystic disease", "fibrocystic changes"}, Type: Disease},
	{CUI: "C0047", Preferred: "ovarian cyst", Synonyms: []string{"ovarian cysts"}, Type: Disease},
	{CUI: "C0048", Preferred: "endometriosis", Synonyms: nil, Type: Disease},
	{CUI: "C0049", Preferred: "uterine fibroids", Synonyms: []string{"fibroids", "leiomyoma"}, Type: Disease},
	{CUI: "C0050", Preferred: "hemorrhoids", Synonyms: nil, Type: Disease},
	{CUI: "C0051", Preferred: "varicose veins", Synonyms: nil, Type: Disease},
	{CUI: "C0052", Preferred: "deep vein thrombosis", Synonyms: []string{"dvt", "blood clot"}, Type: Disease},
	{CUI: "C0053", Preferred: "pulmonary embolism", Synonyms: []string{"pe"}, Type: Disease},
	{CUI: "C0054", Preferred: "pancreatitis", Synonyms: nil, Type: Disease},
	{CUI: "C0055", Preferred: "gallstones", Synonyms: []string{"cholelithiasis", "gallstone disease"}, Type: Disease},
	{CUI: "C0056", Preferred: "hiatal hernia", Synonyms: nil, Type: Disease},
	{CUI: "C0057", Preferred: "colon polyps", Synonyms: []string{"colonic polyps", "polyps"}, Type: Disease},
	{CUI: "C0058", Preferred: "skin cancer", Synonyms: []string{"basal cell carcinoma", "melanoma"}, Type: Disease},
	{CUI: "C0059", Preferred: "prostate cancer", Synonyms: nil, Type: Disease},
	{CUI: "C0060", Preferred: "colon cancer", Synonyms: []string{"colorectal cancer"}, Type: Disease},
	{CUI: "C0061", Preferred: "lung cancer", Synonyms: nil, Type: Disease},
	{CUI: "C0062", Preferred: "ovarian cancer", Synonyms: nil, Type: Disease},
	{CUI: "C0063", Preferred: "cervical dysplasia", Synonyms: []string{"abnormal pap smear"}, Type: Disease},
	{CUI: "C0064", Preferred: "mitral valve prolapse", Synonyms: []string{"mvp"}, Type: Disease},
	{CUI: "C0065", Preferred: "rheumatic fever", Synonyms: nil, Type: Disease},
	{CUI: "C0066", Preferred: "scoliosis", Synonyms: nil, Type: Disease},
	{CUI: "C0067", Preferred: "carpal tunnel syndrome", Synonyms: []string{"carpal tunnel"}, Type: Disease},
	{CUI: "C0068", Preferred: "chronic kidney disease", Synonyms: []string{"renal insufficiency", "ckd"}, Type: Disease},
	{CUI: "C0069", Preferred: "bipolar disorder", Synonyms: []string{"manic depression"}, Type: Disease},
	{CUI: "C0070", Preferred: "vertigo", Synonyms: []string{"dizziness"}, Type: Disease},

	// ---- Surgical procedures ----
	{CUI: "C0101", Preferred: "cholecystectomy", Synonyms: []string{"gallbladder removal", "gallbladder surgery", "laparoscopic cholecystectomy"}, Type: Procedure},
	{CUI: "C0102", Preferred: "cervical laminectomy", Synonyms: []string{"laminectomy", "spinal decompression"}, Type: Procedure},
	{CUI: "C0103", Preferred: "hysterectomy", Synonyms: []string{"total hysterectomy", "uterus removal", "abdominal hysterectomy"}, Type: Procedure},
	{CUI: "C0104", Preferred: "appendectomy", Synonyms: []string{"appendix removal"}, Type: Procedure},
	{CUI: "C0105", Preferred: "tonsillectomy", Synonyms: []string{"tonsil removal", "tonsils removed"}, Type: Procedure},
	{CUI: "C0106", Preferred: "midline hernia closure", Synonyms: []string{"hernia repair", "herniorrhaphy", "hernia closure", "inguinal hernia repair", "umbilical hernia repair"}, Type: Procedure},
	{CUI: "C0107", Preferred: "lumpectomy", Synonyms: []string{"breast lump excision", "partial mastectomy", "segmental mastectomy"}, Type: Procedure},
	{CUI: "C0108", Preferred: "mastectomy", Synonyms: []string{"modified radical mastectomy", "total mastectomy"}, Type: Procedure},
	{CUI: "C0109", Preferred: "breast biopsy", Synonyms: []string{"biopsy", "core biopsy", "excisional biopsy", "needle biopsy"}, Type: Procedure},
	{CUI: "C0110", Preferred: "cesarean section", Synonyms: []string{"c-section", "cesarean delivery"}, Type: Procedure},
	{CUI: "C0111", Preferred: "tubal ligation", Synonyms: []string{"tubes tied"}, Type: Procedure},
	{CUI: "C0112", Preferred: "coronary artery bypass", Synonyms: []string{"cabg", "bypass surgery", "heart bypass"}, Type: Procedure},
	{CUI: "C0113", Preferred: "cardiac catheterization", Synonyms: []string{"heart catheterization"}, Type: Procedure},
	{CUI: "C0114", Preferred: "angioplasty", Synonyms: []string{"stent placement", "coronary stent"}, Type: Procedure},
	{CUI: "C0115", Preferred: "knee replacement", Synonyms: []string{"total knee replacement", "knee arthroplasty"}, Type: Procedure},
	{CUI: "C0116", Preferred: "hip replacement", Synonyms: []string{"total hip replacement", "hip arthroplasty"}, Type: Procedure},
	{CUI: "C0117", Preferred: "arthroscopy", Synonyms: []string{"knee arthroscopy", "arthroscopic surgery"}, Type: Procedure},
	{CUI: "C0118", Preferred: "carpal tunnel release", Synonyms: nil, Type: Procedure},
	{CUI: "C0119", Preferred: "thyroidectomy", Synonyms: []string{"thyroid removal", "thyroid surgery"}, Type: Procedure},
	{CUI: "C0120", Preferred: "oophorectomy", Synonyms: []string{"ovary removal", "bilateral oophorectomy"}, Type: Procedure},
	{CUI: "C0121", Preferred: "dilation and curettage", Synonyms: []string{"d and c"}, Type: Procedure},
	{CUI: "C0122", Preferred: "cataract surgery", Synonyms: []string{"cataract extraction", "lens implant"}, Type: Procedure},
	{CUI: "C0123", Preferred: "septoplasty", Synonyms: []string{"deviated septum repair"}, Type: Procedure},
	{CUI: "C0124", Preferred: "rhinoplasty", Synonyms: nil, Type: Procedure},
	{CUI: "C0125", Preferred: "splenectomy", Synonyms: []string{"spleen removal"}, Type: Procedure},
	{CUI: "C0126", Preferred: "nephrectomy", Synonyms: []string{"kidney removal"}, Type: Procedure},
	{CUI: "C0127", Preferred: "spinal fusion", Synonyms: []string{"back fusion", "lumbar fusion"}, Type: Procedure},
	{CUI: "C0128", Preferred: "bunionectomy", Synonyms: []string{"bunion removal", "bunion surgery"}, Type: Procedure},
	{CUI: "C0129", Preferred: "hemorrhoidectomy", Synonyms: []string{"hemorrhoid removal"}, Type: Procedure},
	{CUI: "C0130", Preferred: "pacemaker placement", Synonyms: []string{"pacemaker insertion", "pacemaker implantation"}, Type: Procedure},
	{CUI: "C0131", Preferred: "colonoscopy", Synonyms: []string{"screening colonoscopy"}, Type: Procedure},
	{CUI: "C0132", Preferred: "skin graft", Synonyms: nil, Type: Procedure},
	{CUI: "C0133", Preferred: "rotator cuff repair", Synonyms: []string{"shoulder surgery", "shoulder repair"}, Type: Procedure},
	{CUI: "C0134", Preferred: "varicose vein stripping", Synonyms: []string{"vein stripping"}, Type: Procedure},
	{CUI: "C0135", Preferred: "breast augmentation", Synonyms: []string{"breast implants"}, Type: Procedure},
	{CUI: "C0136", Preferred: "breast reduction", Synonyms: []string{"reduction mammoplasty"}, Type: Procedure},
	{CUI: "C0137", Preferred: "vasectomy", Synonyms: nil, Type: Procedure},
	{CUI: "C0138", Preferred: "gastric bypass", Synonyms: []string{"bariatric surgery", "weight loss surgery"}, Type: Procedure},
	{CUI: "C0139", Preferred: "lymph node dissection", Synonyms: []string{"axillary dissection", "sentinel node biopsy"}, Type: Procedure},
	{CUI: "C0140", Preferred: "port placement", Synonyms: []string{"port a cath placement", "central line placement"}, Type: Procedure},

	// ---- Findings / symptoms ----
	{CUI: "C0201", Preferred: "back pain", Synonyms: []string{"low back pain", "lumbar pain"}, Type: Finding},
	{CUI: "C0202", Preferred: "chest pain", Synonyms: []string{"angina"}, Type: Finding},
	{CUI: "C0203", Preferred: "shortness of breath", Synonyms: []string{"dyspnea", "breathing difficulty"}, Type: Finding},
	{CUI: "C0204", Preferred: "headache", Synonyms: []string{"headaches", "cephalgia"}, Type: Finding},
	{CUI: "C0205", Preferred: "fatigue", Synonyms: []string{"tiredness"}, Type: Finding},
	{CUI: "C0206", Preferred: "nausea", Synonyms: nil, Type: Finding},
	{CUI: "C0207", Preferred: "breast mass", Synonyms: []string{"breast lump", "palpable mass", "dominant lesion"}, Type: Finding},
	{CUI: "C0208", Preferred: "breast pain", Synonyms: []string{"mastalgia", "breast tenderness"}, Type: Finding},
	{CUI: "C0209", Preferred: "nipple discharge", Synonyms: nil, Type: Finding},
	{CUI: "C0210", Preferred: "abnormal mammogram", Synonyms: []string{"abnormal calcification", "suspicious calcification", "mammographic abnormality"}, Type: Finding},
	{CUI: "C0211", Preferred: "lymphadenopathy", Synonyms: []string{"axillary adenopathy", "enlarged lymph nodes", "adenopathy"}, Type: Finding},
	{CUI: "C0212", Preferred: "weight loss", Synonyms: nil, Type: Finding},
	{CUI: "C0213", Preferred: "night sweats", Synonyms: nil, Type: Finding},
	{CUI: "C0214", Preferred: "palpitations", Synonyms: nil, Type: Finding},
	{CUI: "C0215", Preferred: "joint pain", Synonyms: []string{"arthralgia", "arthralgias"}, Type: Finding},

	// ---- Medications ----
	{CUI: "C0301", Preferred: "aspirin", Synonyms: []string{"asa"}, Type: Medication},
	{CUI: "C0302", Preferred: "hydrochlorothiazide", Synonyms: []string{"hctz"}, Type: Medication},
	{CUI: "C0303", Preferred: "lipitor", Synonyms: []string{"atorvastatin"}, Type: Medication},
	{CUI: "C0304", Preferred: "cardizem", Synonyms: []string{"diltiazem"}, Type: Medication},
	{CUI: "C0305", Preferred: "wellbutrin", Synonyms: []string{"bupropion"}, Type: Medication},
	{CUI: "C0306", Preferred: "zoloft", Synonyms: []string{"sertraline"}, Type: Medication},
	{CUI: "C0307", Preferred: "protonix", Synonyms: []string{"pantoprazole"}, Type: Medication},
	{CUI: "C0308", Preferred: "glucophage", Synonyms: []string{"metformin"}, Type: Medication},
	{CUI: "C0309", Preferred: "penicillin", Synonyms: nil, Type: Medication},
	{CUI: "C0310", Preferred: "ace inhibitors", Synonyms: []string{"lisinopril", "ace inhibitor"}, Type: Medication},
	{CUI: "C0311", Preferred: "senna", Synonyms: nil, Type: Medication},
	{CUI: "C0312", Preferred: "combivent", Synonyms: []string{"albuterol ipratropium"}, Type: Medication},
	{CUI: "C0313", Preferred: "flovent", Synonyms: []string{"fluticasone"}, Type: Medication},
	{CUI: "C0314", Preferred: "synthroid", Synonyms: []string{"levothyroxine"}, Type: Medication},
	{CUI: "C0315", Preferred: "norvasc", Synonyms: []string{"amlodipine"}, Type: Medication},
	{CUI: "C0316", Preferred: "toprol", Synonyms: []string{"metoprolol"}, Type: Medication},
	{CUI: "C0317", Preferred: "lasix", Synonyms: []string{"furosemide"}, Type: Medication},
	{CUI: "C0318", Preferred: "coumadin", Synonyms: []string{"warfarin"}, Type: Medication},
	{CUI: "C0319", Preferred: "plavix", Synonyms: []string{"clopidogrel"}, Type: Medication},
	{CUI: "C0320", Preferred: "zocor", Synonyms: []string{"simvastatin"}, Type: Medication},
	{CUI: "C0321", Preferred: "prilosec", Synonyms: []string{"omeprazole"}, Type: Medication},
	{CUI: "C0322", Preferred: "nexium", Synonyms: []string{"esomeprazole"}, Type: Medication},
	{CUI: "C0323", Preferred: "prozac", Synonyms: []string{"fluoxetine"}, Type: Medication},
	{CUI: "C0324", Preferred: "paxil", Synonyms: []string{"paroxetine"}, Type: Medication},
	{CUI: "C0325", Preferred: "xanax", Synonyms: []string{"alprazolam"}, Type: Medication},
	{CUI: "C0326", Preferred: "ativan", Synonyms: []string{"lorazepam"}, Type: Medication},
	{CUI: "C0327", Preferred: "ambien", Synonyms: []string{"zolpidem"}, Type: Medication},
	{CUI: "C0328", Preferred: "neurontin", Synonyms: []string{"gabapentin"}, Type: Medication},
	{CUI: "C0329", Preferred: "celebrex", Synonyms: []string{"celecoxib"}, Type: Medication},
	{CUI: "C0330", Preferred: "ibuprofen", Synonyms: []string{"motrin", "advil"}, Type: Medication},
	{CUI: "C0331", Preferred: "tylenol", Synonyms: []string{"acetaminophen"}, Type: Medication},
	{CUI: "C0332", Preferred: "prednisone", Synonyms: nil, Type: Medication},
	{CUI: "C0333", Preferred: "insulin", Synonyms: []string{"lantus", "humalog"}, Type: Medication},
	{CUI: "C0334", Preferred: "fosamax", Synonyms: []string{"alendronate"}, Type: Medication},
	{CUI: "C0335", Preferred: "premarin", Synonyms: []string{"conjugated estrogens"}, Type: Medication},
	{CUI: "C0336", Preferred: "tamoxifen", Synonyms: []string{"nolvadex"}, Type: Medication},
	{CUI: "C0337", Preferred: "arimidex", Synonyms: []string{"anastrozole"}, Type: Medication},
	{CUI: "C0338", Preferred: "os-cal", Synonyms: []string{"calcium carbonate"}, Type: Medication},
	{CUI: "C0339", Preferred: "multivitamin", Synonyms: []string{"daily vitamin"}, Type: Medication},
	{CUI: "C0340", Preferred: "allegra", Synonyms: []string{"fexofenadine"}, Type: Medication},
	{CUI: "C0341", Preferred: "claritin", Synonyms: []string{"loratadine"}, Type: Medication},
	{CUI: "C0342", Preferred: "singulair", Synonyms: []string{"montelukast"}, Type: Medication},
	{CUI: "C0343", Preferred: "flonase", Synonyms: []string{"fluticasone nasal"}, Type: Medication},
	{CUI: "C0344", Preferred: "zyrtec", Synonyms: []string{"cetirizine"}, Type: Medication},
	{CUI: "C0345", Preferred: "effexor", Synonyms: []string{"venlafaxine"}, Type: Medication},
	{CUI: "C0346", Preferred: "lexapro", Synonyms: []string{"escitalopram"}, Type: Medication},
	{CUI: "C0347", Preferred: "crestor", Synonyms: []string{"rosuvastatin"}, Type: Medication},
	{CUI: "C0348", Preferred: "diovan", Synonyms: []string{"valsartan"}, Type: Medication},
	{CUI: "C0349", Preferred: "cozaar", Synonyms: []string{"losartan"}, Type: Medication},
	{CUI: "C0350", Preferred: "glyburide", Synonyms: []string{"micronase"}, Type: Medication},

	// ---- Anatomy (sub-phrase guards: these absorb anatomical nouns so
	// they are typed correctly rather than mistaken for findings) ----
	{CUI: "C0401", Preferred: "breast", Synonyms: nil, Type: Anatomy},
	{CUI: "C0402", Preferred: "axilla", Synonyms: nil, Type: Anatomy},
	{CUI: "C0403", Preferred: "lymph node", Synonyms: []string{"lymph nodes"}, Type: Anatomy},
	{CUI: "C0404", Preferred: "gallbladder", Synonyms: nil, Type: Anatomy},
	{CUI: "C0405", Preferred: "uterus", Synonyms: nil, Type: Anatomy},
	{CUI: "C0406", Preferred: "ovary", Synonyms: nil, Type: Anatomy},
	{CUI: "C0407", Preferred: "thyroid", Synonyms: []string{"thyroid gland"}, Type: Anatomy},
	{CUI: "C0408", Preferred: "appendix", Synonyms: nil, Type: Anatomy},
	{CUI: "C0409", Preferred: "spine", Synonyms: []string{"vertebral column"}, Type: Anatomy},
	{CUI: "C0410", Preferred: "abdomen", Synonyms: nil, Type: Anatomy},
}

// Medications returns the medication concepts, for the corpus generator.
func Medications() []Concept {
	var out []Concept
	for _, c := range seedConcepts {
		if c.Type == Medication {
			out = append(out, c)
		}
	}
	return out
}

// PredefinedMedical is the project's fixed list of tracked past-medical
// conditions (paper: "Predefined Past Medical History"); everything else
// found in the ontology is "Other Past Medical History".
var PredefinedMedical = []string{
	"diabetes", "heart disease", "hypertension", "hypercholesterolemia",
	"bronchitis", "arrhythmia", "depression", "asthma", "arthritis", "copd",
}

// PredefinedSurgical is the fixed list of tracked past surgeries (paper:
// "Predefined Past Surgical History").
var PredefinedSurgical = []string{
	"cholecystectomy", "hysterectomy", "appendectomy", "tonsillectomy",
	"cesarean section", "breast biopsy", "lumpectomy", "mastectomy",
	"midline hernia closure", "cervical laminectomy",
}
