// Package strsim provides the string similarity primitives used throughout
// the LTEE pipeline: Levenshtein and Monge-Elkan similarities for label
// comparison, Jaccard and cosine similarities for token sets and term
// vectors, and a shared tokenizer/normalizer.
//
// All similarity functions return values in [0, 1], where 1 means identical.
//
// # Hot-path kernels
//
// Every stage of the pipeline — blocking, clustering, matching, new
// detection, fuzzy search — bottoms out in this package, so the kernels
// are built to be allocation-free and to never repeat work:
//
//   - Levenshtein / LevenshteinSim use pooled DP rows, an ASCII fast path
//     (no rune decoding), and common prefix/suffix trimming. Rune lengths
//     are computed once and shared between the distance and its
//     normalization.
//   - LevenshteinBounded and LevenshteinSimBounded are the kernels for
//     bounded checks and best-candidate searches: a banded DP abandons
//     pairs that cannot beat the caller's floor (or max distance), so
//     high floors cost O(k·n) instead of O(n²).
//   - MongeElkan / MongeElkanSym run on interned token IDs with a sharded
//     memo of token-pair similarities: the corpus vocabulary is
//     heavy-tailed, so the same token pairs recur millions of times.
//   - PreparedLabel (via Prepare or the process-wide PrepareCached)
//     normalizes, tokenizes, interns, and vectorizes a label exactly once
//     per lifetime; use it whenever the same string is compared more than
//     once. TermVec returns the label's sorted binary term vector for
//     merge-join cosines (CosineSparse).
//
// The pre-optimization implementations are retained as unexported
// reference functions, and randomized equivalence tests
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

// TermVector counts normalized token occurrences in each of the given
// strings, producing a term-frequency vector.
func TermVector(ss ...string) map[string]float64 {
	v := make(map[string]float64)
	for _, s := range ss {
		for _, t := range Tokens(s) {
			v[t]++
		}
	}
	return v
}

// BinaryTermVector is like TermVector but records only presence (weight 1),
// matching the paper's "bag-of-words binary term vector".
func BinaryTermVector(ss ...string) map[string]float64 {
	v := make(map[string]float64)
	for _, s := range ss {
		for _, t := range Tokens(s) {
			v[t] = 1
		}
	}
	return v
}
