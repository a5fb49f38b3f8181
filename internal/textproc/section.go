package textproc

import (
	"sort"
	"strings"
)

// Section is one header-delimited block of a semi-structured clinical
// record, e.g. "Past Medical History: Significant for diabetes, ...".
type Section struct {
	Header string // canonical header text without the trailing colon
	Body   string // everything after the colon up to the next header
	Start  int    // byte offset of the header in the record
}

// StandardHeaders is the fixed set of section headers used by the
// consultation notes in the paper's appendix. Each record begins sections
// with one of these strings followed by a colon. The order here is the
// canonical dictation order.
var StandardHeaders = []string{
	"Patient",
	"Chief Complaint",
	"History of Present Illness",
	"GYN History",
	"Past Medical History",
	"Past Surgical History",
	"Medications",
	"Allergies",
	"Social History",
	"Family History",
	"Review of Systems",
	"Physical examination",
	"Vitals",
	"HEENT",
	"Neck",
	"Chest",
	"Heart",
	"Abdomen",
	"Examination of Breasts",
}

// SplitSections splits a record into header-delimited sections. A header
// is a known header string at the start of a line followed by a colon.
// Unknown text before the first header is returned as a section with an
// empty header. The paper notes "One record is comprised of multiple
// sections, each of which begins with a fixed string. Therefore, it is
// easy to split the whole record into sections."
func SplitSections(record string) []Section {
	sectionSplitPasses.Add(1)
	type hit struct {
		header string
		start  int // offset of header text
		body   int // offset just past the colon
	}
	var hits []hit
	lower := strings.ToLower(record)
	for _, h := range StandardHeaders {
		needle := strings.ToLower(h)
		from := 0
		for {
			idx := strings.Index(lower[from:], needle)
			if idx < 0 {
				break
			}
			pos := from + idx
			from = pos + len(needle)
			// Must start a line.
			if pos > 0 && record[pos-1] != '\n' {
				continue
			}
			// Must be followed (possibly after spaces) by a colon.
			j := pos + len(needle)
			for j < len(record) && (record[j] == ' ' || record[j] == '\t') {
				j++
			}
			if j >= len(record) || record[j] != ':' {
				continue
			}
			hits = append(hits, hit{header: h, start: pos, body: j + 1})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].start < hits[j].start })

	var secs []Section
	if len(hits) == 0 {
		body := strings.TrimSpace(record)
		if body != "" {
			secs = append(secs, Section{Body: body})
		}
		return secs
	}
	if pre := strings.TrimSpace(record[:hits[0].start]); pre != "" {
		secs = append(secs, Section{Body: pre})
	}
	for i, h := range hits {
		end := len(record)
		if i+1 < len(hits) {
			end = hits[i+1].start
		}
		secs = append(secs, Section{
			Header: h.header,
			Body:   strings.TrimSpace(record[h.body:end]),
			Start:  h.start,
		})
	}
	return secs
}
