package linkgram

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/pos"
	"repro/internal/textproc"
)

// Link is one typed link of a linkage between two parse words, identified
// by their indices into Linkage.Words.
type Link struct {
	Left, Right int
	Label       string
}

// ParseWord is one word that took part in the parse, with a back-pointer
// to the token it came from in the original sentence.
type ParseWord struct {
	Text       string
	Tag        pos.Tag
	TokenIndex int // index into the sentence's token slice; -1 for the wall
}

// Linkage is a complete planar, connected linkage of a sentence.
type Linkage struct {
	Words []ParseWord // Words[0] is the left wall
	Links []Link
}

// ErrNoLinkage is returned when the sentence has no complete linkage; the
// caller is expected to fall back to the pattern approach, exactly as the
// paper does for unparseable fragments.
var ErrNoLinkage = errors.New("linkgram: no complete linkage")

// MaxWords bounds parser input length; longer sentences are rejected
// immediately (the extractor then uses the pattern fallback).
const MaxWords = 28

// Parse parses a tagged sentence and returns its first complete linkage.
func Parse(tagged []pos.TaggedToken) (*Linkage, error) {
	parsePasses.Add(1)
	p := newParser(tagged)
	if p == nil {
		return nil, ErrNoLinkage
	}
	defer p.release()
	if !p.feasible(0, len(p.words), wallList, nil) {
		return nil, ErrNoLinkage
	}
	var links []Link
	if !p.build(0, len(p.words), wallList, nil, &links) {
		return nil, ErrNoLinkage
	}
	// The parser scratch is recycled; the returned Linkage gets its own
	// copy of the word list.
	words := make([]ParseWord, len(p.words))
	copy(words, p.words)
	return &Linkage{Words: words, Links: p.relabel(links)}, nil
}

// ParseSection parses sentence i of an analyzed section at most once per
// Document, memoizing both the linkage and the ErrNoLinkage outcome: all
// consumers of the shared analysis see the same result, and an
// unparseable sentence pays the parse attempt exactly once. Tagging goes
// through pos.TagSection, so the sentence is also tagged at most once.
// Safe for concurrent use.
func ParseSection(sec *textproc.DocSection, i int) (*Linkage, error) {
	v, err := sec.Derived(i).Parse(func() (any, error) {
		lk, err := Parse(pos.TagSection(sec, i))
		if err != nil {
			return nil, err
		}
		return lk, nil
	})
	if err != nil {
		return nil, err
	}
	lk, _ := v.(*Linkage)
	return lk, nil
}

// parser holds the per-parse scratch: parse words, pruned candidate
// disjuncts, the arena the pruned candidates live in, and the DP memo.
// Instances are recycled through parserPool; newParser resets them.
type parser struct {
	words  []ParseWord // index 0 is the wall; parse positions == indices
	cands  [][]disjunct
	arena  []disjunct // backing for pruned candidate lists
	memo   [][]memoEnt
	stride int // memo row width: len(words)+1 (R ranges to the sentinel)
}

// memoEnt is one memoized feasibility answer for a region (L, R): the
// remaining connector-list IDs of the boundary words and the result. The
// region's entries live in a small bucket scanned linearly, indexed
// densely by (L, R).
type memoEnt struct {
	le, re int32
	val    bool
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// release returns the parser scratch to the pool.
func (p *parser) release() {
	parserPool.Put(p)
}

// newParser prepares parse words, candidate disjuncts, and pruning.
// It returns nil when the sentence is unparseable a priori.
func newParser(tagged []pos.TaggedToken) *parser {
	p := parserPool.Get().(*parser)
	p.words = append(p.words[:0], ParseWord{Text: "LEFT-WALL", TokenIndex: -1})
	p.cands = p.cands[:0]
	p.arena = p.arena[:0]
	p.cands = append(p.cands, nil) // wall's disjuncts handled via wallList
	for i := 0; i < len(tagged); i++ {
		t := tagged[i]
		// Multi-word idioms parse as one word ("as well as" behaves as a
		// conjunction).
		if family, span := matchIdiom(tagged, i); span > 0 {
			joined := tagged[i].Text
			for _, xt := range tagged[i+1 : i+span] {
				joined += " " + xt.Text
			}
			p.words = append(p.words, ParseWord{Text: joined, Tag: t.Tag, TokenIndex: i})
			p.cands = append(p.cands, idiomCands[family])
			i += span - 1
			continue
		}
		switch t.Kind {
		case textproc.Punct, textproc.Symbol:
			// Keep only coordination punctuation; drop the rest (final
			// periods, quotes, parens).
			if t.Text != "," && t.Text != ";" {
				continue
			}
		}
		ds := cachedDisjuncts(strings.ToLower(t.Text), t.Tag)
		if ds == nil {
			// A word with no connector candidates (interjections) makes a
			// full linkage impossible.
			if t.Kind == textproc.Word || t.Kind == textproc.Number {
				p.release()
				return nil
			}
			continue
		}
		p.words = append(p.words, ParseWord{Text: t.Text, Tag: t.Tag, TokenIndex: i})
		p.cands = append(p.cands, ds)
	}
	if len(p.words) <= 1 || len(p.words) > MaxWords {
		p.release()
		return nil
	}
	p.resetMemo()
	p.prune()
	return p
}

// resetMemo sizes the dense (L, R) bucket table for the current word
// count and empties every bucket, keeping their backing arrays.
func (p *parser) resetMemo() {
	p.stride = len(p.words) + 1
	n := p.stride * p.stride
	if cap(p.memo) < n {
		p.memo = make([][]memoEnt, n)
		return
	}
	p.memo = p.memo[:n]
	for i := range p.memo {
		p.memo[i] = p.memo[i][:0]
	}
}

// matchIdiom reports the idiom family and token span when the tokens at
// position i start a known multi-word idiom.
func matchIdiom(tagged []pos.TaggedToken, i int) (string, int) {
	for _, seq := range idiomSeqs {
		if i+len(seq.parts) > len(tagged) {
			continue
		}
		ok := true
		for j, part := range seq.parts {
			if !strings.EqualFold(tagged[i+j].Text, part) {
				ok = false
				break
			}
		}
		if ok {
			return seq.family, len(seq.parts)
		}
	}
	return "", 0
}

// prune repeatedly drops disjuncts with a connector that cannot match any
// connector of any other word on the required side ("power pruning").
// The first pass filters the shared cached candidate lists into the
// per-parse arena — cached lists are immutable — and later passes filter
// the arena slices in place.
func (p *parser) prune() {
	inArena := false
	for pass := 0; pass < 6; pass++ {
		// rightAvail[c] = true if some word offers connector c
		// right-pointing (including the wall). leftAvail likewise.
		var rightAvail, leftAvail [nConn]bool
		rightAvail[cW] = true
		for i := 1; i < len(p.words); i++ {
			for _, d := range p.cands[i] {
				for n := d.right; n != nil; n = n.next {
					rightAvail[n.name] = true
				}
				for n := d.left; n != nil; n = n.next {
					leftAvail[n.name] = true
				}
			}
		}
		changed := false
		for i := 1; i < len(p.words); i++ {
			src := p.cands[i]
			var kept []disjunct
			if inArena {
				kept = src[:0]
				for _, d := range src {
					if disjunctViable(d, &rightAvail, &leftAvail) {
						kept = append(kept, d)
					}
				}
			} else {
				start := len(p.arena)
				for _, d := range src {
					if disjunctViable(d, &rightAvail, &leftAvail) {
						p.arena = append(p.arena, d)
					}
				}
				// Cap the slice at its end so later words' appends to the
				// arena can never alias this word's survivors.
				kept = p.arena[start:len(p.arena):len(p.arena)]
			}
			if len(kept) != len(src) {
				changed = true
			}
			p.cands[i] = kept
		}
		inArena = true
		if !changed {
			return
		}
	}
}

// disjunctViable reports whether every connector of d can match some
// connector offered by another word on the required side.
func disjunctViable(d disjunct, rightAvail, leftAvail *[nConn]bool) bool {
	for n := d.left; n != nil; n = n.next {
		if !rightAvail[n.name] {
			return false
		}
	}
	for n := d.right; n != nil; n = n.next {
		if !leftAvail[n.name] {
			return false
		}
	}
	return true
}

// feasible implements the Sleator–Temperley region count as a boolean:
// can the region strictly between words L and R be completed, where le is
// the list of L's remaining right connectors (farthest-first) and re is
// the list of R's remaining left connectors (farthest-first)? R ==
// len(words) is the right sentinel with no connectors.
func (p *parser) feasible(L, R int, le, re *node) bool {
	if L+1 == R {
		return le == nil && re == nil
	}
	bi := L*p.stride + R
	li, ri := listID(le), listID(re)
	bucket := p.memo[bi]
	for k := range bucket {
		if bucket[k].le == li && bucket[k].re == ri {
			return bucket[k].val
		}
	}
	// Insert a false placeholder first (guards against impossible cycles),
	// then fill in the computed answer.
	idx := len(bucket)
	p.memo[bi] = append(bucket, memoEnt{le: li, re: ri})
	res := p.anyWord(L, R, le, re, nil)
	p.memo[bi][idx].val = res
	return res
}

// anyWord enumerates the splitting word W and its disjuncts. When out is
// non-nil it records the links of the first solution found and returns
// after completing it. The enumeration considers:
//
//	case A: W links to L via le.head ↔ d.left.head, then either also links
//	        to R (A1) or not (A2);
//	case B: le is empty and W links to R via d.right.head ↔ re.head, with
//	        the left sub-region closed by W's remaining left connectors.
//
// Choosing W as the target of le's farthest connector (case A) or, when
// le is empty, of re's farthest connector (case B) makes every linkage
// counted exactly once.
func (p *parser) anyWord(L, R int, le, re *node, out *[]Link) bool {
	for W := L + 1; W < R; W++ {
		for _, d := range p.cands[W] {
			// Case A: W ↔ L.
			if le != nil && d.left != nil && match(le.name, d.left.name) {
				if p.feasible(L, W, le.next, d.left.next) {
					// A1: W also links to R.
					if re != nil && d.right != nil && match(d.right.name, re.name) &&
						p.feasible(W, R, d.right.next, re.next) {
						if out == nil {
							return true
						}
						*out = append(*out,
							Link{Left: L, Right: W, Label: connNames[le.name]},
							Link{Left: W, Right: R, Label: connNames[re.name]})
						if p.build(L, W, le.next, d.left.next, out) && p.build(W, R, d.right.next, re.next, out) {
							return true
						}
						return false
					}
					// A2: W does not link directly to R.
					if p.feasible(W, R, d.right, re) {
						if out == nil {
							return true
						}
						*out = append(*out, Link{Left: L, Right: W, Label: connNames[le.name]})
						if p.build(L, W, le.next, d.left.next, out) && p.build(W, R, d.right, re, out) {
							return true
						}
						return false
					}
				}
			}
			// Case B: le empty; W links to R.
			if le == nil && re != nil && d.right != nil && match(d.right.name, re.name) {
				if p.feasible(L, W, nil, d.left) && p.feasible(W, R, d.right.next, re.next) {
					if out == nil {
						return true
					}
					*out = append(*out, Link{Left: W, Right: R, Label: connNames[re.name]})
					if p.build(L, W, nil, d.left, out) && p.build(W, R, d.right.next, re.next, out) {
						return true
					}
					return false
				}
			}
		}
	}
	return false
}

// build reconstructs the links of one feasible solution for the region.
// It must only be called on feasible regions.
func (p *parser) build(L, R int, le, re *node, out *[]Link) bool {
	if L+1 == R {
		return le == nil && re == nil
	}
	return p.anyWord(L, R, le, re, out)
}

// relabel rewrites link labels for presentation: an A link whose left word
// is a noun becomes AN (noun-noun modifier, as in Figure 1's
// Blood—AN—pressure), and links incident to the sentinel are dropped.
func (p *parser) relabel(links []Link) []Link {
	kept := links[:0]
	for _, l := range links {
		if l.Right >= len(p.words) {
			continue // sentinel link cannot occur, but be safe
		}
		if l.Label == connNames[cA] && p.words[l.Left].Tag.IsNoun() {
			l.Label = "AN"
		}
		kept = append(kept, l)
	}
	return kept
}

// WordIndexForToken returns the parse-word index for a sentence token
// index, or -1 when the token was dropped before parsing.
func (lk *Linkage) WordIndexForToken(tokenIndex int) int {
	for i, w := range lk.Words {
		if w.TokenIndex == tokenIndex {
			return i
		}
	}
	return -1
}

// String renders the linkage compactly: word list and links.
func (lk *Linkage) String() string {
	var b strings.Builder
	for i, w := range lk.Words {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w.Text)
	}
	b.WriteByte('\n')
	for _, l := range lk.Links {
		fmt.Fprintf(&b, "%s(%s, %s) ", l.Label, lk.Words[l.Left].Text, lk.Words[l.Right].Text)
	}
	return strings.TrimSpace(b.String())
}
