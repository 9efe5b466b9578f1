//! Bottom-up agglomerative clustering of pin locations (paper §3.1.2).
//!
//! Every pin starts as its own cluster; the closest pair (Euclidean,
//! between gravity centers) is merged while their distance stays below a
//! threshold. The result is the hyper-pin partition: each cluster's
//! gravity center will represent its member pins during routing.

use operon_geom::{FPoint, Point};

/// End of a member list, and the partner of a row with none.
const NONE: usize = usize::MAX;

/// Agglomerates `points` into clusters whose pairwise gravity-center
/// distance is at least `threshold`.
///
/// Returns the member-index lists; each input index appears in exactly one
/// cluster. With `threshold <= 0` no merging occurs; with a very large
/// threshold everything collapses into one cluster.
///
/// The merge order is exact: each step merges the first pair `(i, j)`,
/// `i < j`, in row-major scan order whose gravity-center distance is the
/// strict minimum, folds `j`'s members after `i`'s, and moves the last
/// cluster into slot `j` (`swap_remove`). Clusters come back in that slot
/// order. A distance matrix and each row's best partner keep a step at
/// O(n) expected, O(n²) for the whole net; after a merge only the rows
/// whose best partner moved or lost its distance are rescanned.
///
/// # Examples
///
/// ```
/// use operon_cluster::agglomerate;
/// use operon_geom::Point;
///
/// let pins = [
///     Point::new(0, 0),
///     Point::new(2, 0),     // near the first pin
///     Point::new(100, 100), // far away
/// ];
/// let clusters = agglomerate(&pins, 10.0);
/// assert_eq!(clusters.len(), 2);
/// ```
pub fn agglomerate(points: &[Point], threshold: f64) -> Vec<Vec<usize>> {
    let n = points.len();
    let mut centers: Vec<FPoint> = points.iter().map(|p| p.to_fpoint()).collect();
    // Each slot's members as a linked list through `next`, so a merge
    // appends in O(1) and keeps the member order.
    let mut head: Vec<usize> = (0..n).collect();
    let mut tail = head.clone();
    let mut size = vec![1usize; n];
    let mut next = vec![NONE; n];
    // `dist[a * n + b]`: the distance between the centers in slots `a`
    // and `b`, stored both ways; `euclidean` is bitwise symmetric.
    let mut dist = vec![0.0f64; n * n];
    for a in 0..n {
        for b in a + 1..n {
            let d = centers[a].euclidean(centers[b]);
            dist[a * n + b] = d;
            dist[b * n + a] = d;
        }
    }
    // `best[r]`: the first strict minimum of row `r` over the slots
    // after it, as `(distance, slot)`.
    let mut best: Vec<(f64, usize)> = (0..n).map(|r| row_best(&dist, n, r, n)).collect();

    let mut m = n;
    while m >= 2 {
        // The first row holding the minimum: with each row's first
        // strict minimum, this is the first pair in scan order.
        let mut i = 0;
        for r in 1..m - 1 {
            if best[r].0 < best[i].0 {
                i = r;
            }
        }
        let (d, j) = best[i];
        // Not `d >= threshold`: a NaN threshold must merge nothing.
        let merge = d < threshold;
        if !merge {
            break;
        }
        // Merge j into i; gravity center weighted by member count.
        let (ni, nj) = (size[i] as f64, size[j] as f64);
        centers[i] = FPoint::new(
            (centers[i].x * ni + centers[j].x * nj) / (ni + nj),
            (centers[i].y * ni + centers[j].y * nj) / (ni + nj),
        );
        next[tail[i]] = head[j];
        tail[i] = tail[j];
        size[i] += size[j];
        let last = m - 1;
        centers.swap_remove(j);
        head.swap_remove(j);
        tail.swap_remove(j);
        size.swap_remove(j);
        if j != last {
            for k in 0..m {
                dist[j * n + k] = dist[last * n + k];
                dist[k * n + j] = dist[k * n + last];
            }
        }
        m = last;
        for k in (0..m).filter(|&k| k != i) {
            let d = centers[i].euclidean(centers[k]);
            dist[i * n + k] = d;
            dist[k * n + i] = d;
        }

        // Rows i and j changed wholesale, and a row whose partner was
        // i (its distance changed), j (gone) or `last` (moved to j, out
        // of range for rows past j) must rescan. Every other row keeps
        // its partner and weighs only its new entries at i and j.
        for r in 0..m - 1 {
            let bc = best[r].1;
            if r == i || r == j || bc == i || bc == j || bc == last {
                best[r] = row_best(&dist, n, r, m);
                continue;
            }
            // Slot j is empty when the merged cluster was the last one.
            for c in [i, j].into_iter().filter(|&c| r < c && c < m) {
                let (bd, bc) = best[r];
                let d = dist[r * n + c];
                if d < bd || (d == bd && c < bc) {
                    best[r] = (d, c);
                }
            }
        }
    }

    head.iter()
        .zip(&size)
        .map(|(&h, &s)| {
            let mut members = Vec::with_capacity(s);
            let mut p = h;
            while p != NONE {
                members.push(p);
                p = next[p];
            }
            members
        })
        .collect()
}

/// The first strict minimum of row `r` of the `n`-stride matrix `dist`
/// over slots `r + 1..m`, or `(∞, NONE)` when the row has none.
fn row_best(dist: &[f64], n: usize, r: usize, m: usize) -> (f64, usize) {
    let row = &dist[r * n..r * n + m];
    let mut best = (f64::INFINITY, NONE);
    for (c, &d) in row.iter().enumerate().skip(r + 1) {
        if best.1 == NONE || d < best.0 {
            best = (d, c);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The gravity center of a cluster of points, rounded to the lattice.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    fn gravity_center(points: &[Point], members: &[usize]) -> Point {
        assert!(!members.is_empty(), "gravity center of an empty cluster");
        FPoint::centroid(members.iter().map(|&i| points[i].to_fpoint()))
            .expect("non-empty members")
            .round()
    }

    /// The O(n³) merge loop `agglomerate` replaced: rescan every pair
    /// after each merge. The reference for the exact merge order.
    fn agglomerate_reference(points: &[Point], threshold: f64) -> Vec<Vec<usize>> {
        let mut clusters: Vec<Vec<usize>> = (0..points.len()).map(|i| vec![i]).collect();
        let mut centers: Vec<FPoint> = points.iter().map(|p| p.to_fpoint()).collect();

        loop {
            // Find the closest pair of clusters.
            let mut best: Option<(f64, usize, usize)> = None;
            for i in 0..clusters.len() {
                for j in i + 1..clusters.len() {
                    let d = centers[i].euclidean(centers[j]);
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, i, j));
                    }
                }
            }
            match best {
                Some((d, i, j)) if d < threshold => {
                    // Merge j into i; gravity center weighted by member count.
                    let (ni, nj) = (clusters[i].len() as f64, clusters[j].len() as f64);
                    centers[i] = FPoint::new(
                        (centers[i].x * ni + centers[j].x * nj) / (ni + nj),
                        (centers[i].y * ni + centers[j].y * nj) / (ni + nj),
                    );
                    let moved = clusters.swap_remove(j);
                    centers.swap_remove(j);
                    // After swap_remove, index i is still valid because j > i.
                    clusters[i].extend(moved);
                }
                _ => break,
            }
        }
        clusters
    }

    fn points(raw: &[(i64, i64)]) -> Vec<Point> {
        raw.iter().copied().map(Point::from).collect()
    }

    #[test]
    fn empty_input_gives_no_clusters() {
        assert!(agglomerate(&[], 10.0).is_empty());
    }

    #[test]
    fn zero_threshold_keeps_singletons() {
        let pts = [Point::new(0, 0), Point::new(1, 0), Point::new(2, 0)];
        let clusters = agglomerate(&pts, 0.0);
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn huge_threshold_collapses_everything() {
        let pts = [Point::new(0, 0), Point::new(50, 0), Point::new(0, 50)];
        let clusters = agglomerate(&pts, 1e9);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn two_groups_separate_cleanly() {
        let pts = [
            Point::new(0, 0),
            Point::new(3, 0),
            Point::new(0, 3),
            Point::new(1000, 1000),
            Point::new(1004, 1000),
        ];
        let clusters = agglomerate(&pts, 50.0);
        assert_eq!(clusters.len(), 2);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = clusters.iter().map(Vec::len).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn chain_merging_uses_gravity_centers() {
        // Points at 0, 10, 20 with threshold 11: 0 and 10 merge (center 5);
        // center-to-20 distance is 15 >= 11, so 20 stays separate even
        // though it was within 11 of the original point at 10.
        let pts = [Point::new(0, 0), Point::new(10, 0), Point::new(20, 0)];
        let clusters = agglomerate(&pts, 11.0);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn gravity_center_of_square() {
        let pts = [
            Point::new(0, 0),
            Point::new(4, 0),
            Point::new(4, 4),
            Point::new(0, 4),
        ];
        assert_eq!(gravity_center(&pts, &[0, 1, 2, 3]), Point::new(2, 2));
    }

    #[test]
    #[should_panic(expected = "empty cluster")]
    fn gravity_center_of_empty_panics() {
        let _ = gravity_center(&[Point::origin()], &[]);
    }

    #[test]
    fn swap_remove_into_a_best_partner_slot() {
        // Row 0's best partner is slot 3 (distance 5). The first merge
        // takes (1, 2) at distance 1 and moves the last cluster, slot 4,
        // into slot 2, one slot before row 0's partner; slot 4 sits at
        // distance 5 from slot 0 too, so row 0 must now take slot 2.
        let pts = points(&[(0, 0), (100, 0), (101, 0), (5, 0), (0, 5)]);
        for threshold in [2.0, 5.0, 5.5, 60.0, 200.0] {
            assert_eq!(
                agglomerate(&pts, threshold),
                agglomerate_reference(&pts, threshold),
                "threshold {threshold}"
            );
        }
        // Row 0's best partner is slot 2 itself (distance 29): (1, 2)
        // merges and slot 3 moves into the emptied slot, so row 0 must
        // rescan.
        let pts = points(&[(0, 0), (30, 0), (29, 0), (200, 0)]);
        for threshold in [2.0, 30.0, 40.0, 250.0] {
            assert_eq!(
                agglomerate(&pts, threshold),
                agglomerate_reference(&pts, threshold),
                "threshold {threshold}"
            );
        }
        // Row 0's best partner is the moved last cluster, slot 4.
        let pts = points(&[(0, 0), (50, 0), (51, 0), (300, 0), (3, 0)]);
        for threshold in [2.0, 4.0, 60.0] {
            assert_eq!(
                agglomerate(&pts, threshold),
                agglomerate_reference(&pts, threshold),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn duplicate_pins_tie_like_the_reference() {
        let pts = points(&[(7, 7), (0, 0), (7, 7), (0, 0), (7, 7), (3, 4), (0, 0)]);
        for threshold in [0.5, 1.0, 5.0, 9.0, 10.0, 100.0] {
            assert_eq!(
                agglomerate(&pts, threshold),
                agglomerate_reference(&pts, threshold),
                "threshold {threshold}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Pins on a coarse lattice, so duplicate locations and equal
        /// distances are common, against a threshold that is either a
        /// lattice multiple or exactly some pairwise distance.
        #[test]
        fn matches_the_reference_merge_order(
            raw in proptest::collection::vec((0i64..12, 0i64..12), 0..100),
            pitch in 1i64..40,
            pick in (0usize..100, 0usize..100),
            steps in 0i64..8,
            exact in any::<bool>(),
        ) {
            let pts: Vec<Point> = raw
                .iter()
                .map(|&(x, y)| Point::new(x * pitch, y * pitch))
                .collect();
            let threshold = if exact && !pts.is_empty() {
                pts[pick.0 % pts.len()].euclidean(pts[pick.1 % pts.len()])
            } else {
                (steps * pitch) as f64
            };
            prop_assert_eq!(
                agglomerate(&pts, threshold),
                agglomerate_reference(&pts, threshold)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn partition_is_exact(
            pts in proptest::collection::vec((-300i64..300, -300i64..300), 0..25),
            threshold in 0.0f64..200.0,
        ) {
            let pts: Vec<Point> = pts.into_iter().map(Point::from).collect();
            let clusters = agglomerate(&pts, threshold);
            let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
            all.sort_unstable();
            let expect: Vec<usize> = (0..pts.len()).collect();
            prop_assert_eq!(all, expect);
        }

        #[test]
        fn final_centers_respect_threshold(
            pts in proptest::collection::vec((-300i64..300, -300i64..300), 2..20),
            threshold in 1.0f64..100.0,
        ) {
            let pts: Vec<Point> = pts.into_iter().map(Point::from).collect();
            let clusters = agglomerate(&pts, threshold);
            let centers: Vec<_> = clusters
                .iter()
                .map(|c| gravity_center(&pts, c).to_fpoint())
                .collect();
            for i in 0..centers.len() {
                for j in i + 1..centers.len() {
                    // Rounded centers may drift by up to ~1 dbu from the
                    // exact gravity centers the algorithm compared.
                    prop_assert!(centers[i].euclidean(centers[j]) >= threshold - 2.0);
                }
            }
        }
    }
}
