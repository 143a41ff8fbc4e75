package strsim

// MongeElkanSym returns the symmetrized Monge-Elkan similarity
// (ME(a,b) + ME(b,a)) / 2, with LevenshteinSim as the inner (token-level)
// similarity, exactly as the paper's LABEL metrics do. ME(a,b) tokenizes
// both strings with the shared normalizer, finds for each token of a the
// best-matching token of b, and averages the scores.
//
// It runs on interned token IDs with the shared token-pair memo; callers
// comparing the same labels repeatedly should Prepare (or PrepareCached)
// them once and use PreparedLabel.MongeElkanSym, which also skips
// re-tokenization.
func MongeElkanSym(a, b string) float64 {
	pa := idSlicePool.Get().(*[]int32)
	pb := idSlicePool.Get().(*[]int32)
	ia := appendTokenIDs((*pa)[:0], a)
	ib := appendTokenIDs((*pb)[:0], b)
	var s float64
	if hasNoID(ia) || hasNoID(ib) {
		s = mongeElkanSymStrs(Tokens(a), Tokens(b))
	} else {
		s = mongeElkanSymIDs(ia, ib)
	}
	*pa, *pb = ia[:0], ib[:0]
	idSlicePool.Put(pa)
	idSlicePool.Put(pb)
	return s
}

// MongeElkanSymCached is MongeElkanSym through the prepared-label cache:
// both strings are normalized and tokenized at most once per process
// lifetime. Use it for comparisons over recurring strings (labels, cell
// values); one-off strings should use MongeElkanSym to avoid growing the
// cache.
func MongeElkanSymCached(a, b string) float64 {
	return PrepareCached(a).MongeElkanSym(PrepareCached(b))
}

// symStackTokens bounds the column-maxima buffer the single-pass symmetric
// kernel keeps on the stack; only a second label of more tokens than this
// allocates it.
const symStackTokens = 16

// mongeElkanSymIDs is symmetric Monge-Elkan over interned token IDs, in one
// pass over the token-pair matrix (see symMaxima).
func mongeElkanSymIDs(ta, tb []int32) float64 {
	return symMaxima(len(ta), len(tb), func(i, j int, _ float64) float64 {
		return levSimTok(ta[i], tb[j])
	})
}

// mongeElkanSymStrs is symmetric Monge-Elkan over token strings, the path
// taken when tokens are not interned (interner at cap). Each pair runs the
// bounded kernel against symMaxima's floor: a token pair that cannot beat
// it is abandoned mid-DP.
func mongeElkanSymStrs(ta, tb []string) float64 {
	return symMaxima(len(ta), len(tb), func(i, j int, floor float64) float64 {
		if ta[i] == tb[j] {
			return 1
		}
		return LevenshteinSimBounded(ta[i], tb[j], floor)
	})
}

// symMaxima computes symmetric Monge-Elkan over an na×nb token-pair matrix
// whose entries sim supplies. A row's maximum is ME(a, b)'s term for that
// token of a, a column's maximum is ME(b, a)'s term for that token of b.
// Each direction sums its terms in token order and the two averages are
// added commutatively, so the result is bit-identical to two directed
// passes while every token pair is computed at most once instead of twice.
//
// sim receives the smaller of the pair's row and column running maxima as
// a floor. It must return the exact similarity when that exceeds the
// floor and may return any value at or below the floor otherwise: such a
// value cannot raise either maximum. A pair whose floor is already 1 is
// skipped, the single-pass form of the directed kernels' early exit.
func symMaxima(na, nb int, sim func(i, j int, floor float64) float64) float64 {
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	var buf [symStackTokens]float64
	var col []float64
	if nb <= symStackTokens {
		col = buf[:nb]
	} else {
		col = make([]float64, nb)
	}
	var rowSum float64
	for i := 0; i < na; i++ {
		best := 0.0
		for j := range col {
			floor := min(best, col[j])
			if floor == 1 {
				continue
			}
			s := sim(i, j, floor)
			if s > best {
				best = s
			}
			if s > col[j] {
				col[j] = s
			}
		}
		rowSum += best
	}
	var colSum float64
	for _, v := range col {
		colSum += v
	}
	return (rowSum/float64(na) + colSum/float64(nb)) / 2
}

// ---------------------------------------------------------------------------
// Reference implementations (pre-optimization) for the equivalence tests.

func mongeElkanSymRef(a, b string) float64 {
	ta, tb := Tokens(a), Tokens(b)
	return (mongeElkanTokensRef(ta, tb) + mongeElkanTokensRef(tb, ta)) / 2
}

func mongeElkanTokensRef(ta, tb []string) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	var sum float64
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := levenshteinSimRef(x, y); s > best {
				best = s
				if best == 1 {
					break
				}
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}
