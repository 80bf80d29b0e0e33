package nexit

// CheatEvaluator implements the lying strategy of paper §5.4. It wraps
// the cheater's truthful evaluator and, assuming perfect knowledge of the
// other ISP's preferences (which "overestimates the cheater's ability"),
// distorts the disclosed list so that for each flow the cheater's best
// alternative attains the maximum combined preference sum and therefore
// gets selected under max-sum proposals:
//
//   - The preference of the cheater's best alternative is inflated just
//     enough to reach the maximum sum (preserving, as far as possible,
//     the relative ordering of the cheater's original preferences so
//     better alternatives are still picked first).
//   - If the inflation would exceed the class bound P, the preferences
//     of the other alternatives are decreased instead.
//
// The cheater's realized outcome must be measured with its true metric
// (the experiments recompute distance/MEL from the final assignment), not
// with the disclosed classes.
type CheatEvaluator struct {
	// Truthful is the cheater's honest evaluator (its true metric).
	Truthful Evaluator
	// Other is the victim's evaluator, giving the cheater its assumed
	// perfect knowledge of the other side's preferences.
	Other Evaluator
	// P is the preference class bound.
	P int

	// flat backs the rows Prefs returns, under the Evaluator ownership
	// contract: they are valid until the next Prefs call.
	flat []int
	rows [][]int
}

// Prefs implements Evaluator: it discloses the distorted list.
func (c *CheatEvaluator) Prefs(items []Item, defaults []int) [][]int {
	own := c.Truthful.Prefs(items, defaults)
	other := c.Other.Prefs(items, defaults)
	total := 0
	for _, row := range own {
		total += len(row)
	}
	c.flat, c.rows = resize(c.flat, total), resize(c.rows, len(items))
	flat := c.flat
	for i := range items {
		n := len(own[i])
		c.rows[i], flat = distortPrefs(flat[:n:n], own[i], other[i], c.P), flat[n:]
	}
	return c.rows
}

// Commit implements Evaluator, keeping the truthful evaluator's internal
// state (loads) consistent with reality.
func (c *CheatEvaluator) Commit(it Item, alt int) {
	c.Truthful.Commit(it, alt)
	// The victim's evaluator is shared with the engine and committed by
	// it; committing again here would double-count.
}

// distortPrefs writes the disclosed preferences for one flow into out,
// which has own's length, and returns it.
func distortPrefs(out, own, other []int, p int) []int {
	n := len(own)
	copy(out, own)
	if n == 0 {
		return out
	}
	// The cheater's best alternative (ties to the lowest index, matching
	// the engine's determinism).
	best := 0
	for k := 1; k < n; k++ {
		if own[k] > own[best] {
			best = k
		}
	}
	// Target: make best attain the maximum combined sum.
	maxSum := own[0] + other[0]
	for k := 1; k < n; k++ {
		if s := own[k] + other[k]; s > maxSum {
			maxSum = s
		}
	}
	need := maxSum - other[best] // disclosed own[best] needed to reach maxSum
	if need <= own[best] {
		return out // already maximal; disclose truthfully
	}
	if need <= p {
		out[best] = need
		return out
	}
	// Inflating past the bound is impossible; clamp the best to P and
	// deflate every other alternative so best still wins:
	// out[k] <= P + other[best] - other[k] for all k != best.
	out[best] = p
	for k := 0; k < n; k++ {
		if k == best {
			continue
		}
		limit := p + other[best] - other[k]
		if out[k] > limit {
			out[k] = limit
		}
		if out[k] < -p {
			out[k] = -p
		}
	}
	return out
}
