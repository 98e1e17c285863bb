// Package par stands in for the compute pool: costcharge treats a function
// handed to par.Do as code that runs on a pool goroutine.
package par

// Do runs fn.
func Do(fn func()) { fn() }
