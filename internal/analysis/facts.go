package analysis

import (
	"encoding/json"
	"fmt"
)

// Facts is the cross-package fact store of one lint run.
//
// Interprocedural analyzers summarize each declared function of a package
// (does it transitively call obs? does it Put its buffer parameter? is its
// result map-iteration-order dependent?) and export the summary as a fact
// keyed by the analyzer's name and the function's package-qualified name
// (callgraph.FuncID). When a later package calls into an already-analyzed
// one, the analyzer imports the callee's fact instead of guessing. The
// loader imports each module package as the very *types.Package it
// checked, so the whole run shares one type universe; the string key keeps
// the store independent of that.
//
// Values are stored JSON-encoded, so Import hands each caller its own copy.
type Facts struct {
	index map[factKey]json.RawMessage
}

type factKey struct {
	analyzer string
	id       string
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{index: map[factKey]json.RawMessage{}}
}

// Export records a fact about the function identified by id (use
// callgraph.FuncID). v must be JSON-marshalable; a marshal failure is a
// programming error and panics. Re-exporting the same key overwrites.
func (f *Facts) Export(analyzer, id string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("analysis: exporting fact %s/%s: %v", analyzer, id, err))
	}
	f.index[factKey{analyzer, id}] = data
}

// Import decodes the fact for (analyzer, id) into out, reporting whether
// one was present.
func (f *Facts) Import(analyzer, id string, out any) bool {
	data, ok := f.index[factKey{analyzer, id}]
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, out); err != nil {
		panic(fmt.Sprintf("analysis: importing fact %s/%s: %v", analyzer, id, err))
	}
	return true
}
