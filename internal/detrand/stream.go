package detrand

import "math/rand"

// math/rand's generator is additive lagged Fibonacci: output n is the sum of
// outputs n−streamLen and n−streamTap, mod 2⁶⁴.
const (
	streamLen = 607
	streamTap = 273
)

// Stream is math/rand's generator for one seed, readable a block of raw
// 64-bit outputs at a time (Next) instead of one interface call per draw. See
// the package comment for its contract. A Stream is not safe for concurrent
// use; the SendGradient trainer keeps one per executor.
type Stream struct {
	// src is seeded in place on every (re)seed and read only for the
	// stream's first streamLen outputs.
	src rand.Source64
	// win[:have] are consecutive outputs of the stream, win[:pos] of them
	// already handed out. While have < streamLen the window is still being
	// filled from src, as far as the reader has asked (a reader that stops
	// early pays for no more draws than it took); once full it is advanced a
	// whole window at a time by the recurrence, and src is left behind.
	win       [streamLen]uint64
	have, pos int
}

// NewStream returns the stream of rand.New(rand.NewSource(seed)).
func NewStream(seed int64) *Stream {
	return &Stream{src: rand.NewSource(seed).(rand.Source64)}
}

// SeedStep rewinds s, in place, to the start of the stream Step(seed, t, i)
// draws from: a worker that samples from a fresh stream every step keeps one
// Stream for the run and allocates nothing per step.
func (s *Stream) SeedStep(seed int64, t, i int) {
	s.src.Seed(stepSeed(seed, t, i))
	s.have, s.pos = 0, 0
}

// Next consumes and returns the stream's next outputs: at least one and at
// most max of them (max ≥ 1), fewer than max when the window ends first. The
// slice is a view of the window — read-only, valid until the next call on s.
func (s *Stream) Next(max int) []uint64 {
	if s.pos == s.have {
		s.advance(max)
	}
	end := min(s.pos+max, s.have)
	blk := s.win[s.pos:end]
	s.pos = end
	return blk
}

// advance makes at least one unread output available, up to want of them
// while the window is still filling.
func (s *Stream) advance(want int) {
	if s.have < streamLen {
		end := min(s.have+want, streamLen)
		for i := s.have; i < end; i++ {
			s.win[i] = s.src.Uint64()
		}
		s.have = end
		return
	}
	// The window holds outputs [n, n+streamLen), all read; overwrite it with
	// the next streamLen. Slot i becomes x_{n+607+i} = win[i] + x_{n+334+i}:
	// for i < 273 the second term is still in the window at i+334, after
	// that it is the already-renewed slot i−273. Neither loop wraps.
	w := &s.win
	for i := 0; i < streamTap; i++ {
		w[i] += w[i+streamLen-streamTap]
	}
	for i := streamTap; i < streamLen; i++ {
		w[i] += w[i-streamTap]
	}
	s.pos = 0
}

// Uint64 returns the stream's next output, like (*rand.Rand).Uint64.
func (s *Stream) Uint64() uint64 { return s.Next(1)[0] }

// Int63 returns the next output's low 63 bits, like (*rand.Rand).Int63.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
