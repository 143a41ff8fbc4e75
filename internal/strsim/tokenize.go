// Package strsim provides the string similarity primitives used throughout
// the LTEE pipeline: Levenshtein and symmetric Monge-Elkan similarities for
// label comparison, cosine similarity for binary term vectors, and a
// shared tokenizer/normalizer.
//
// All similarity functions return values in [0, 1], where 1 means identical.
//
// # Hot-path kernels
//
// Every stage of the pipeline — blocking, clustering, matching, new
// detection, fuzzy search — bottoms out in this package, so the kernels
// are built to be allocation-free and to never repeat work:
//
//   - Levenshtein / LevenshteinSim run one exact DP, generic over bytes
//     and runes: all-ASCII inputs enter it as their bytes without
//     decoding, others as runes decoded into pooled buffers. DP rows are
//     pooled, common prefixes/suffixes trimmed, and rune lengths computed
//     once and shared between the distance and its normalization.
//   - LevenshteinBounded runs the banded DP for bounded checks: it
//     abandons pairs whose distance exceeds the caller's max, so "within
//     distance k?" costs O(k·n) instead of O(n²).
//   - MongeElkanSym has one kernel: it runs on interned token IDs in one
//     pass over the token-pair matrix, with a sharded memo of token-pair
//     similarities. The corpus vocabulary is heavy-tailed, so the same
//     token pairs recur millions of times. The token interner is uncapped
//     (every token it holds comes from data the process keeps), so every
//     label has IDs and no string fallback exists.
//   - PreparedLabel (via Prepare or the process-wide PrepareCached)
//     normalizes, tokenizes, interns, and vectorizes a label exactly once
//     per lifetime; use it whenever the same string is compared more than
//     once. TermCosine compares two labels' cached binary term vectors by
//     a merge join (CosineSparse).
//
// The pre-optimization implementations are retained as unexported
// reference functions, and randomized and fuzz equivalence tests
// (kernel_test.go) prove the optimized kernels return exactly — bit for
// bit — the reference values, so callers can switch freely between the
// prepared and plain entry points without output drift.
package strsim

import (
	"strings"
	"unicode"
)

// Normalize lower-cases s, replaces any non-alphanumeric rune with a space,
// and collapses runs of whitespace. It is the canonical label normalization
// used by the blocking index, the BOW metrics, and the gold standard.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true // trim leading spaces
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
			prevSpace = false
		default:
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// Tokens splits s into normalized word tokens. Empty input yields nil.
func Tokens(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Fields(n)
}

// BinaryTermVector records each normalized token of the given strings with
// weight 1, the paper's "bag-of-words binary term vector".
func BinaryTermVector(ss ...string) map[string]float64 {
	v := make(map[string]float64)
	for _, s := range ss {
		for _, t := range Tokens(s) {
			v[t] = 1
		}
	}
	return v
}
