//! Shared machinery for horizon-based schemes: prefix-sharing enumeration
//! of every level plan over a short horizon. Public so downstream users can
//! build their own horizon-based ABR variants on the same primitive.

/// Longest horizon [`for_each_plan`] supports. Horizon-based schemes use
/// single-digit lookahead (the paper's MPC runs N = 5); the cap keeps the
/// per-depth state on the stack, so the decision hot path never allocates.
pub const MAX_HORIZON: usize = 16;

/// Visit every level plan of length `horizon` over `n_levels` tracks, in
/// lexicographic order. `step(parent, k, level)` returns the state after
/// the plan's `k`-th chunk is fetched at `level`, given the state after its
/// first `k` chunks (`root` for `k = 0`); `leaf(first_level, state)` sees
/// each complete plan. Each prefix is extended once, so the paper's N = 5
/// over 6 tracks costs 6 + 36 + … + 7 776 = 9 330 steps rather than
/// 7 776 × 5 = 38 880, with every plan's state folded in the same order, so
/// to the bit the same as re-simulating it from the root.
///
/// # Panics
/// Panics unless `n_levels > 0` and `0 < horizon <= MAX_HORIZON`.
pub fn for_each_plan<S: Copy>(
    n_levels: usize,
    horizon: usize,
    root: S,
    step: impl Fn(&S, usize, usize) -> S,
    mut leaf: impl FnMut(usize, &S),
) {
    assert!(n_levels > 0 && horizon > 0 && horizon <= MAX_HORIZON);
    let mut levels = [0usize; MAX_HORIZON];
    // `states[k]` is the state after the current plan's first `k` chunks.
    let mut states = [root; MAX_HORIZON];
    let last = horizon - 1;
    let mut depth = 0;
    loop {
        while depth < last {
            states[depth + 1] = step(&states[depth], depth, levels[depth]);
            depth += 1;
        }
        // Each level at the last position completes one plan.
        for level in 0..n_levels {
            let first = if last == 0 { level } else { levels[0] };
            leaf(first, &step(&states[last], last, level));
        }
        // Advance the deepest position that has not wrapped; the states
        // above it stay valid and are shared by the plans that follow.
        loop {
            if depth == 0 {
                return;
            }
            depth -= 1;
            levels[depth] += 1;
            if levels[depth] < n_levels {
                break;
            }
            levels[depth] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every plan, in visiting order, with the state `step` built for it.
    fn plans(n_levels: usize, horizon: usize) -> Vec<(usize, Vec<usize>)> {
        let mut seen = Vec::new();
        // The state records the plan itself (up to 4 levels) as digits.
        for_each_plan(
            n_levels,
            horizon,
            (0usize, 0usize),
            |&(len, digits), _, level| (len + 1, digits * 10 + level),
            |first, &(len, digits)| {
                let mut seq = vec![0; len];
                let mut rest = digits;
                for slot in seq.iter_mut().rev() {
                    *slot = rest % 10;
                    rest /= 10;
                }
                seen.push((first, seq));
            },
        );
        seen
    }

    #[test]
    fn enumerates_all_plans_in_lexicographic_order() {
        let seen = plans(3, 2);
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], (0, vec![0, 0]));
        assert_eq!(seen[1], (0, vec![0, 1]));
        assert_eq!(seen[3], (1, vec![1, 0]));
        assert_eq!(seen[8], (2, vec![2, 2]));
        let seqs: Vec<_> = seen.iter().map(|(_, s)| s.clone()).collect();
        let mut sorted = seqs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, seqs, "distinct and lexicographic");
        assert!(seen.iter().all(|(first, s)| *first == s[0]));
    }

    #[test]
    fn single_level_single_step() {
        assert_eq!(plans(1, 1), vec![(0, vec![0])]);
    }

    #[test]
    fn extends_each_prefix_once() {
        let steps = std::cell::Cell::new(0usize);
        let mut leaves = 0usize;
        for_each_plan(
            6,
            5,
            (),
            |_, _, _| steps.set(steps.get() + 1),
            |_, _| leaves += 1,
        );
        assert_eq!(leaves, 7_776);
        assert_eq!(steps.get(), 6 + 36 + 216 + 1_296 + 7_776);
    }

    #[test]
    fn steps_see_their_depth() {
        let mut max_depth = 0usize;
        for_each_plan(
            2,
            MAX_HORIZON,
            0usize,
            |&d, k, _| {
                assert_eq!(d, k, "parent state is the state after k chunks");
                d + 1
            },
            |_, &d| max_depth = max_depth.max(d),
        );
        assert_eq!(max_depth, MAX_HORIZON);
    }

    #[test]
    #[should_panic]
    fn rejects_horizon_above_cap() {
        for_each_plan(2, MAX_HORIZON + 1, (), |_, _, _| (), |_, _| ());
    }
}
