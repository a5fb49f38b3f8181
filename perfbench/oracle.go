package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// chartRow is one stored attribute of a note, as /v1/patient/{id}
// returns it.
type chartRow struct {
	Attr    string  `json:"attribute"`
	Value   string  `json:"value"`
	Numeric float64 `json:"numeric"`
}

// chartOf is the oracle for what the warehouse stores for one
// extraction: one row per numeric attribute (the value rendered as the
// daemon documents it, the first component as the number), one per
// extracted term, one for the smoking label. Rows are ordered by
// attribute, then by extraction order, which is the chart's order.
func chartOf(ex core.Extraction) []chartRow {
	var rows []chartRow
	for attr, v := range ex.Numeric {
		val := fmt.Sprintf("%g", v.Value)
		if v.Ratio {
			val = fmt.Sprintf("%g/%g", v.Value, v.Value2)
		}
		rows = append(rows, chartRow{attr, val, v.Value})
	}
	for _, l := range []struct {
		attr  string
		terms []string
	}{
		{"predefined past medical history", ex.PreMedical},
		{"other past medical history", ex.OtherMedical},
		{"predefined past surgical history", ex.PreSurgical},
		{"other past surgical history", ex.OtherSurgical},
		{"medications", ex.Medications},
	} {
		for _, t := range l.terms {
			rows = append(rows, chartRow{Attr: l.attr, Value: t})
		}
	}
	if ex.Smoking != "" {
		rows = append(rows, chartRow{Attr: "smoking", Value: ex.Smoking})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Attr < rows[j].Attr })
	return rows
}

// matches reports whether a chart satisfies a condition: some row of
// the attribute carries the term and lies within the numeric bounds.
func (c cond) matches(chart []chartRow) bool {
	for _, r := range chart {
		if r.Attr != c.Attr || (c.Term != "" && r.Value != c.Term) {
			continue
		}
		if (c.Min == nil || r.Numeric >= *c.Min) && (c.Max == nil || r.Numeric <= *c.Max) {
			return true
		}
	}
	return false
}

func (a ask) matches(chart []chartRow) bool {
	for _, c := range a.conds {
		if !c.matches(chart) {
			return false
		}
	}
	return true
}

// answer is the oracle's reply to an ask over charts of patients
// firstID, firstID+1, ...: the matching patient ids, ascending.
func (a ask) answer(charts [][]chartRow, firstID int64) []int64 {
	out := []int64{}
	for i, chart := range charts {
		if a.matches(chart) {
			out = append(out, firstID+int64(i))
		}
	}
	return out
}
