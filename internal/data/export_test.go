package data

import "mllibstar/internal/glm"

// RowChunk is addGradRows' warm-ahead chunk, for the tests that size their
// samples around it.
const RowChunk = rowChunk

// RandomRows and RandomModel are the row and model generators of
// losssum_test.go.
var (
	RandomRows  = randomRows
	RandomModel = randomModel
)

// RowsOf returns the view's rows as glm.Examples backed by its arena:
// the form the per-Example references in internal/oracle take.
func RowsOf(v View) []glm.Example {
	out := make([]glm.Example, v.NumRows())
	for i := range out {
		out[i] = v.Example(i)
	}
	return out
}
