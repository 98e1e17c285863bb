package data

// RowChunk is addGradRows' warm-ahead chunk, for the tests that size their
// samples around it.
const RowChunk = rowChunk
