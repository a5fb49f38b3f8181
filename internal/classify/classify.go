// Package classify defines the pluggable classification layer for the
// categorical attributes (smoking, alcohol, family history, …): a small
// Backend/Model interface pair, adapters for the ID3/Gini decision trees
// of internal/id3, and a pure-Go vector-similarity backend in the style
// of line-classification systems (hashed bag-of-words + character
// n-gram vectors, cosine against per-label centroids).
//
// The two families consume different views of a record: tree models read
// the Boolean link-grammar feature map of §3.3, vector models read the
// raw token stream. Instance carries both views lazily, so a backend
// pays only for the analysis it actually uses — a vector model never
// POS-tags or parses — and memoizes each view so shared instances are
// computed at most once regardless of how many models consult them.
package classify

import (
	"fmt"
	"sync"
)

// Instance is one thing to classify. Both views are lazy and memoized;
// the zero value yields no features and no tokens. An Instance is safe
// to share across goroutines: concurrent models may consult both views
// and each is computed exactly once.
type Instance struct {
	features func() map[string]bool
	tokens   func() []string
}

// NewInstance builds an instance from lazy view constructors. Either
// function may be nil when the corresponding view cannot be produced;
// non-nil functions are invoked at most once, under a sync.Once, so a
// shared instance never recomputes (and never races) a view.
func NewInstance(features func() map[string]bool, tokens func() []string) Instance {
	inst := Instance{}
	if features != nil {
		var once sync.Once
		var feats map[string]bool
		inst.features = func() map[string]bool {
			once.Do(func() { feats = features() })
			return feats
		}
	}
	if tokens != nil {
		var once sync.Once
		var toks []string
		inst.tokens = func() []string {
			once.Do(func() { toks = tokens() })
			return toks
		}
	}
	return inst
}

// Features returns the Boolean feature view (nil when absent).
func (in Instance) Features() map[string]bool {
	if in.features == nil {
		return nil
	}
	return in.features()
}

// Tokens returns the token-stream view (nil when absent).
func (in Instance) Tokens() []string {
	if in.tokens == nil {
		return nil
	}
	return in.tokens()
}

// Example is one labeled training or evaluation case.
type Example struct {
	Instance
	Class string
}

// Model is a trained classifier.
type Model interface {
	// Backend names the backend that trained the model (for stats and
	// plan lines).
	Backend() string
	// Predict labels one instance. An untrained/degenerate model
	// returns "".
	Predict(Instance) string
	// Size is the model's capacity in backend-specific units: distinct
	// features tested for tree models, non-zero centroid dimensions for
	// vector models. The cross-validation harness reports its range the
	// way the paper reports "the number of features used in the
	// decision tree ranges from four to seven".
	Size() int
}

// Backend trains models from labeled examples.
type Backend interface {
	// Name is the backend's registry name ("id3", "gini", "vector").
	Name() string
	// Params is a short human-readable parameter summary for stats and
	// plan lines ("dims=4096 char=3" for the vector backend).
	Params() string
	Train(examples []Example) Model
}

// Names lists the registered backend names in canonical order (the
// order CLIs document and eval reports iterate).
func Names() []string { return []string{"id3", "gini", "vector"} }

// New resolves a backend by registry name with default parameters.
func New(name string) (Backend, error) {
	switch name {
	case "id3":
		return ID3{}, nil
	case "gini":
		return Gini{}, nil
	case "vector":
		return NewVector(), nil
	}
	return nil, fmt.Errorf("unknown classification backend %q (want id3, gini or vector)", name)
}

// Default is the backend used when none is selected: the paper's ID3
// information-gain trees.
func Default() Backend { return ID3{} }
