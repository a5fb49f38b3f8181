package core

import (
	"strings"

	"repro/internal/textproc"
)

// The paper's system has no negation handling, so "No history of stroke"
// yields a false-positive stroke. This file implements the obvious
// extension — a NegEx-style trigger scope filter — so its effect on
// Table 1 precision can be measured (ablation A7). It is off by default
// to stay faithful to the evaluated system.

// negationTriggers open a negation scope that runs to the end of the
// sentence (clinical dictation rarely closes scopes mid-sentence).
var negationTriggers = [][]string{
	{"no"},
	{"not"},
	{"denies"},
	{"denied"},
	{"without"},
	{"negative", "for"},
	{"free", "of"},
	{"rule", "out"},
	{"no", "history", "of"},
	{"no", "evidence", "of"},
	{"never"},
}

// negatedSpans returns, per sentence, the token index from which content
// is negated (math.MaxInt-like sentinel when none).
func negationStart(sent textproc.Sentence) int {
	toks := sent.Tokens
	for i := range toks {
		if toks[i].Kind != textproc.Word {
			continue
		}
		// Longest trigger match at this position wins, so "no history
		// of" opens its scope after "of", not after "no".
		best := 0
		for _, trig := range negationTriggers {
			if len(trig) <= best || i+len(trig) > len(toks) {
				continue
			}
			match := true
			for j, w := range trig {
				if toks[i+j].Kind != textproc.Word || !strings.EqualFold(toks[i+j].Text, w) {
					match = false
					break
				}
			}
			if match {
				best = len(trig)
			}
		}
		if best > 0 {
			return i + best
		}
	}
	return 1 << 30
}
