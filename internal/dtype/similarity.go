package dtype

import (
	"math"

	"repro/internal/strsim"
)

// Thresholds holds the per-kind equivalence thresholds. Similarity at or
// above the threshold means "the two values are equal" for grouping,
// duplicate-based matching, and fact evaluation. The zero value is unusable;
// use DefaultThresholds.
type Thresholds struct {
	// Text is the minimum Monge-Elkan similarity for two texts to be equal.
	Text float64
	// Ref is the minimum Monge-Elkan similarity for two instance
	// references to point at the same instance.
	Ref float64
	// QuantityTol is the maximum relative deviation |a-b| / max(|a|,|b|)
	// for two quantities to be equal (the paper's "learned tolerance
	// range").
	QuantityTol float64
}

// DefaultThresholds are the equivalence thresholds used throughout the
// pipeline unless a component learned its own.
func DefaultThresholds() Thresholds {
	return Thresholds{Text: 0.85, Ref: 0.80, QuantityTol: 0.05}
}

// Similarity computes the data-type-specific similarity of two values in
// [0, 1]. Values of incomparable kinds score 0. Comparing a Date against a
// year-granularity Date compares only years.
func (t Thresholds) Similarity(a, b Value) float64 {
	return similarity(t, a, b, strsim.MongeElkanSymCached)
}

// Equal reports whether a and b are equal under the kind-specific
// equivalence threshold.
func (t Thresholds) Equal(a, b Value) bool {
	return EqualWith(t, a, b, strsim.MongeElkanSymCached)
}

// EqualWith is t.Equal with textSim supplying the Monge-Elkan similarity of
// two Text or InstanceReference value strings. It is the one kind-and-
// threshold implementation behind Equal, for callers that memoize the
// string similarity themselves (the row clusterer keeps one memo per
// ingest epoch). textSim must return exactly strsim.MongeElkanSymCached's
// value for the result to equal t.Equal(a, b).
func EqualWith(t Thresholds, a, b Value, textSim func(a, b string) float64) bool {
	s := similarity(t, a, b, textSim)
	switch {
	case a.Kind == NominalString || a.Kind == NominalInteger ||
		b.Kind == NominalString || b.Kind == NominalInteger:
		return s == 1
	case a.Kind == Date && b.Kind == Date:
		return s == 1
	case a.Kind == Quantity && b.Kind == Quantity:
		return s >= 1-t.QuantityTol
	case a.Kind == InstanceReference || b.Kind == InstanceReference:
		return s >= t.Ref
	default:
		return s >= t.Text
	}
}

// similarity is Thresholds.Similarity with the text similarity supplied.
// Value strings recur across rows and instances (the ATTRIBUTE and
// IMPLICIT_ATT metrics compare the same fact values over and over), so
// the default supplier goes through the prepared-label cache, which
// tokenizes each distinct string once per process.
func similarity(t Thresholds, a, b Value, textSim func(a, b string) float64) float64 {
	ka, kb := a.Kind, b.Kind
	if ka.Coarse() != kb.Coarse() && !(ka == Date && kb == Date) {
		return 0
	}
	switch {
	case ka == NominalString || kb == NominalString:
		if a.Str == b.Str && a.Str != "" {
			return 1
		}
		return 0
	case ka == NominalInteger || kb == NominalInteger:
		if a.Num == b.Num {
			return 1
		}
		return 0
	case ka == Date && kb == Date:
		return dateSim(a, b)
	case ka == Quantity && kb == Quantity:
		return quantitySim(a.Num, b.Num, t.QuantityTol)
	default: // text-like strings
		return textSim(a.Str, b.Str)
	}
}

func dateSim(a, b Value) float64 {
	if a.Year != b.Year {
		return 0
	}
	// If either side only knows the year, matching years suffice.
	if a.Gran == GranYear || b.Gran == GranYear {
		return 1
	}
	if a.Month == b.Month && a.Day == b.Day {
		return 1
	}
	return 0
}

func quantitySim(a, b, tol float64) float64 {
	if a == b {
		return 1
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 1
	}
	rel := math.Abs(a-b) / den
	if tol > 0 && rel <= tol {
		// Inside the tolerance band, degrade linearly from 1 to 1-tol so
		// closer values still rank higher.
		return 1 - rel
	}
	s := 1 - rel
	if s < 0 {
		return 0
	}
	return s
}
