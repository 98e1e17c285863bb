// Package p does not compile.
package p

// N is not a string.
var N int = "x"
