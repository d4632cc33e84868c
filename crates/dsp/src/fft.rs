//! Fast Fourier transforms.
//!
//! One Cooley–Tukey kernel runs every transform:
//!
//! * **Mixed-radix Cooley–Tukey** (radices 4, 2, 3 and 5; self-sorting
//!   Stockham passes) for lengths with no prime factor above 5: powers of
//!   two and the `2^a·3^b·5^c` lengths collection grids produce (360
//!   one-minute samples in 6 hours, 2 880 half-minutes in a day).
//! * **Bluestein's chirp-z algorithm** for every other length: a linear
//!   convolution evaluated with two mixed-radix transforms at the smallest
//!   length `2^a·f ≥ 2N − 1` with `f` in {1, 3, 5, 9, 15}.
//! * A **real-input path**: an even length-`N` transform is one length-`N/2`
//!   complex FFT plus an untangle pass. An odd length with a prime factor
//!   above 5 runs a **one-sided Bluestein** on the real samples that yields
//!   bins `0..=(N−1)/2` only, from a `(3N − 1)/2`-point convolution instead
//!   of `2N − 1`. Odd 5-smooth lengths promote the input to complex.
//!
//! # What is cached and what is not
//!
//! [`FftPlanner`] caches twiddle tables, Bluestein chirps, real-transform
//! plans and window-coefficient tables per length, so repeated
//! transforms of the same size (the common case when scanning a fleet of
//! equally-long traces) pay the setup cost once. A planner has one owner
//! and is lent to each transform: a fleet worker keeps one for all the
//! devices it steps, so each worker holds every distinct plan once, and
//! tables are pure data that never influence results, only memory and
//! setup time. Every lent-scratch path (`track`, `study`, `fleetsim`,
//! `estimate_samples`) runs this cached route.
//!
//! A transform run **once** has no use for a table it reads once. The
//! one-shot route ([`crate::psd::periodogram_once_into`], behind
//! `NyquistEstimator::estimate_series` and so `recommend` and `sweetspot
//! analyze`) builds none at a 5-smooth length, packed even or promoted
//! odd: each radix pass reads `Roots::new(m).root(j·t·s)` as it reaches
//! group `j`, the untangle reads `Roots::new(n).root(k)` and the window
//! coefficients come from `Roots::new(n − 1)` likewise. These are the
//! products the cached tables store, so the output bits are the same, and
//! the table cache stays empty: only the working buffers grow. Lengths with
//! a prime factor above 5 still build their Bluestein tables in the cache.
//! Both routes run the same radix passes and untangle, generic over where a
//! twiddle comes from.
//!
//! By default the cache is unbounded — fine for workloads that revisit a
//! handful of lengths. Fleet-scale workloads that sweep *many* distinct
//! lengths (10⁵ adaptive controllers each polling at its own rate) can cap it
//! with [`FftPlanner::set_table_budget`]: an admission that takes the cache
//! over the cap drops every table nothing outside the cache references, so
//! only the plan being served (and any table a caller holds) stays. Because
//! tables are pure functions of their length, a drop is invisible to
//! results — a re-requested length rebuilds the identical table and pays
//! only setup time. Each table is charged its own bytes once, so
//! [`FftPlanner::table_bytes`] is the heap the cached tables hold.
//!
//! Every trig table — mixed-radix twiddles, packed-real untangle twiddles,
//! Bluestein chirps and window cosines — is filled from a two-level root
//! table: `e^{−2πi e/N} = hi[e >> k] · lo[e mod 2^k]` with `2^k ≈ √N`, so a
//! table costs about `2√N` direct `cis` calls plus one complex multiply per
//! entry, and each entry stays within a few ulps of direct evaluation. The
//! root table is dropped once its table is filled (or, on the one-shot
//! route, once the transform is done).
//! [`FftPlanner::table_build_time`] reports the wall time the cache has
//! spent building.
//!
//! A planner also owns the working buffers its transforms run in, and the
//! `*_into` methods write into caller-owned outputs. Once those buffers
//! have warmed up, steady-state transforms of previously seen lengths
//! perform **no heap allocations** — the property the periodogram
//! pipeline in [`crate::psd`] relies on. Every forward real transform
//! runs one kernel that maps each sample as it loads it and hands each
//! bin to a sink as it emits it, which is how the periodogram detrends,
//! windows and squares without a copy.
//!
//! Conventions: the forward transform is **unnormalized**
//! (`X_k = Σ x_n e^{−2πi nk/N}`); the inverse scales by `1/N`, so
//! `ifft(fft(x)) == x`.

use crate::complex::Complex64;
use crate::window::{Window, WindowTable};
use std::borrow::Borrow;
use std::f64::consts::PI;
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sweetspot_obs::Counter;

/// Number of one-sided spectrum bins of a length-`n` real signal:
/// `n/2 + 1` for even `n`, `(n+1)/2` for odd `n`, `0` for `n == 0`.
#[inline]
pub fn one_sided_len(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n / 2 + 1
    }
}

/// The working buffers a planner's transforms run in. All grow on demand
/// and are reused across calls, so steady state allocates nothing;
/// contents never influence results.
///
/// A periodogram ([`crate::psd::periodogram_into`]) needs nothing else:
/// the real transform loads the detrended, windowed samples straight into
/// `half` and emits each bin's power straight to the caller, so an even
/// length `n` fills two `n/2`-point complex buffers (`half` and `work`).
#[derive(Debug, Default)]
struct Buffers {
    /// The Bluestein convolution: the chirp-weighted input, zero-padded to
    /// the convolution length.
    conv: Vec<Complex64>,
    /// The mixed-radix ping-pong buffer, as long as the transform it serves
    /// (the convolution length under Bluestein).
    work: Vec<Complex64>,
    /// Packed half-length input of even-length real transforms: mapped
    /// samples `2j` and `2j + 1` as one complex point.
    half: Vec<Complex64>,
    /// Full-length complex buffer for odd 5-smooth real transforms and
    /// odd-length real inverses.
    full: Vec<Complex64>,
}

impl Buffers {
    /// Heap bytes the buffers hold (capacities, not lengths).
    fn bytes(&self) -> usize {
        (self.conv.capacity() + self.work.capacity() + self.half.capacity() + self.full.capacity())
            * std::mem::size_of::<Complex64>()
    }
}

/// The `n`-th roots of unity `e^{−2πi e/n}`, `e < n`, from two short tables
/// of direct [`Complex64::cis`] values: with `2^shift ≈ √n`,
/// `root(e) = hi[e >> shift] · lo[e mod 2^shift]`.
///
/// Filling a table of all `n` roots this way costs about `2√n` trig calls
/// plus one complex multiply per entry, instead of one `cis` per entry;
/// each root stays within a few ulps of the direct value. Every trig table
/// (mixed-radix and untangle twiddles, Bluestein chirps, window cosines)
/// builds one, fills itself and drops it, so nothing extra stays resident.
/// Cached transforms read only the filled tables: each root costs a complex
/// multiply, which a transform would pay on every read instead of once per
/// table — a trade against the tables' memory that favours speed for the
/// transforms a planner repeats thousands of times. A one-shot transform
/// ([`FftPlanner::fft_real_once_with`]) reads each root once either way, so
/// it reads the `Roots` directly and builds no table.
pub(crate) struct Roots {
    n: usize,
    shift: u32,
    lo: Vec<Complex64>,
    hi: Vec<Complex64>,
}

impl Roots {
    /// The two factor tables for `n ≥ 1`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "roots of unity need n ≥ 1");
        // Half the bit length of n puts 2^shift within a factor √2 of √n.
        let shift = (usize::BITS - n.leading_zeros()) / 2;
        let direct = |e: usize| Complex64::cis(-2.0 * PI * e as f64 / n as f64);
        let lo = (0..(1usize << shift).min(n)).map(direct).collect();
        let hi = (0..=(n - 1) >> shift).map(|h| direct(h << shift)).collect();
        Roots { n, shift, lo, hi }
    }

    /// `e^{−2πi e/n}` for `e < n`.
    #[inline]
    pub(crate) fn root(&self, e: usize) -> Complex64 {
        debug_assert!(e < self.n);
        self.hi[e >> self.shift] * self.lo[e & ((1 << self.shift) - 1)]
    }
}

/// Odd factors of the Bluestein convolution lengths: a convolution of at
/// least `min` points runs at the smallest `2^a·f ≥ min` over these `f`.
///
/// Chosen by timing the inner transforms of every Bluestein size 101…3000
/// (2-vCPU VM): 157–160 ms in sum, against 212–215 for powers of two and
/// 171–175 for the smallest 5-smooth length. `{1, 3, 5}` tied but holds
/// 2.6% more table bytes; denser ladders gained nothing measurable.
const CONV_LADDER: [usize; 5] = [1, 3, 5, 9, 15];

/// The Bluestein convolution length for a linear convolution of `min`
/// points (see [`CONV_LADDER`]).
fn conv_len(min: usize) -> usize {
    CONV_LADDER
        .iter()
        .map(|&f| f * min.div_ceil(f).next_power_of_two())
        .min()
        .expect("the ladder is non-empty")
}

/// Precomputed state for a Bluestein transform of arbitrary length `n` that
/// yields its first `bins` outputs: all `n` for the complex transform,
/// `(n+1)/2` for the one-sided transform of an odd real input.
struct BluesteinPlan {
    n: usize,
    bins: usize,
    /// `chirp[k] = e^{−iπ k² / n}`, the pre/post-multiplier.
    chirp: Vec<Complex64>,
    /// FFT of the chirp kernel `b`, scaled by `1/m` so the inverse
    /// transform of the product needs no separate normalization pass.
    kernel_fft: Vec<Complex64>,
    /// Mixed-radix plan of the convolution length `m ≥ n + bins − 1`.
    inner: Arc<MixedPlan>,
}

impl BluesteinPlan {
    fn new(n: usize, bins: usize, inner: Arc<MixedPlan>) -> Self {
        let m = inner.n;
        debug_assert!(bins <= n && m >= n + bins - 1);
        // e^{−iπ k²/n} = e^{−2πi (k² mod 2n)/2n}: k² mod 2n, kept exactly by
        // (k+1)² = k² + 2k + 1, indexes the 2n-th roots of unity.
        let roots = Roots::new(2 * n);
        let mut chirp = Vec::with_capacity(n);
        let mut k2 = 0;
        for k in 0..n {
            chirp.push(roots.root(k2));
            k2 += 2 * k + 1;
            if k2 >= 2 * n {
                k2 -= 2 * n;
            }
        }
        // Output k < bins reads the kernel at lags k − j ∈ (−n, bins): the
        // non-negative lags sit at the front, the negative ones wrap to the
        // back, and `m ≥ n + bins − 1` keeps the two apart.
        let mut kernel_fft = vec![Complex64::ZERO; m];
        for (slot, c) in kernel_fft.iter_mut().zip(&chirp[..bins]) {
            *slot = c.conj();
        }
        for (k, c) in chirp.iter().enumerate().skip(1) {
            kernel_fft[m - k] = c.conj();
        }
        inner.fft(&mut kernel_fft, &mut Vec::new());
        let scale = 1.0 / m as f64;
        for z in &mut kernel_fft {
            *z = z.scale(scale);
        }
        BluesteinPlan {
            n,
            bins,
            chirp,
            kernel_fft,
            inner,
        }
    }

    /// Heap bytes of this plan's own chirp and kernel tables. The inner
    /// mixed-radix plan is a cache entry of its own and charged there.
    fn table_bytes(&self) -> usize {
        (self.chirp.capacity() + self.kernel_fft.capacity()) * std::mem::size_of::<Complex64>()
    }

    /// Convolves the chirp-weighted input with the kernel: loads `weighted`
    /// into `conv`, zero-pads it to the convolution length and leaves the
    /// *conjugated* convolution there (the inverse runs as a conjugated
    /// forward transform, and the caller folds the last conjugation into
    /// its chirp post-multiply).
    fn convolve(
        &self,
        weighted: impl Iterator<Item = Complex64>,
        conv: &mut Vec<Complex64>,
        work: &mut Vec<Complex64>,
    ) {
        conv.clear();
        conv.extend(weighted);
        conv.resize(self.kernel_fft.len(), Complex64::ZERO);
        self.inner.fft(conv, work);
        for (x, k) in conv.iter_mut().zip(&self.kernel_fft) {
            *x = (*x * *k).conj();
        }
        self.inner.fft(conv, work);
    }

    /// Forward complex transform of `buf` (`bins == n`), in place.
    fn fft(&self, buf: &mut [Complex64], conv: &mut Vec<Complex64>, work: &mut Vec<Complex64>) {
        debug_assert_eq!(buf.len(), self.n);
        self.convolve(
            buf.iter().zip(&self.chirp).map(|(x, c)| *x * *c),
            conv,
            work,
        );
        for ((out, y), c) in buf.iter_mut().zip(conv.iter()).zip(&self.chirp) {
            *out = y.conj() * *c;
        }
    }

    /// One-sided transform of the real samples `map(i, input[i])`: each of
    /// its first `bins` bins to `sink`.
    fn fft_real(
        &self,
        input: &[f64],
        map: impl Fn(usize, f64) -> f64,
        mut sink: impl FnMut(usize, Complex64),
        conv: &mut Vec<Complex64>,
        work: &mut Vec<Complex64>,
    ) {
        debug_assert_eq!(input.len(), self.n);
        let weighted = input.iter().enumerate().zip(&self.chirp);
        self.convolve(weighted.map(|((i, &x), c)| c.scale(map(i, x))), conv, work);
        for (k, (y, c)) in conv[..self.bins].iter().zip(&self.chirp).enumerate() {
            sink(k, y.conj() * *c);
        }
    }
}

/// `true` when `n` is nonzero and has no prime factor above 5. Unlike
/// [`smooth_radices`] it never allocates, so transforms may call it.
pub(crate) fn is_smooth(mut n: usize) -> bool {
    if n == 0 {
        return false;
    }
    for p in [2, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// Radix passes of a mixed-radix plan for `n`, in the order they run —
/// 4s, then at most one 2, then 3s, then 5s — or `None` when `n` is 0 or
/// has a prime factor above 5.
fn smooth_radices(mut n: usize) -> Option<Vec<usize>> {
    if !is_smooth(n) {
        return None;
    }
    let mut radices = Vec::new();
    for p in [4, 2, 3, 5] {
        while n.is_multiple_of(p) {
            radices.push(p);
            n /= p;
        }
    }
    Some(radices)
}

/// Precomputed tables for a mixed-radix (4, 2, 3, 5) Cooley–Tukey transform
/// of a length with no prime factor above 5.
///
/// Self-sorting (Stockham) decimation in frequency: each pass reads one
/// buffer and writes the other, so no digit-reversal permutation is stored
/// or applied. The pass of radix `p` over sub-length `l = p·m` at stride
/// `s = n/l` treats the data as `s` interleaved length-`l` sequences, takes
/// the `p`-point DFT of elements `j, j+m, …, j+(p−1)m` of each, multiplies
/// output `t` by `e^{−2πi jt/l}` and stores it as element `j` of sequence
/// `q + s·t` at stride `s·p` — after the last pass every bin sits in
/// natural order.
struct MixedPlan {
    n: usize,
    /// Pass radices, in order (see [`smooth_radices`]).
    radices: Box<[usize]>,
    /// Every pass's twiddles, concatenated: the pass of radix `p` over
    /// sub-length `l = p·m` holds `e^{−2πi jt/l}` at `j·(p−1) + t − 1` for
    /// `j < m`, `1 ≤ t < p` — `n − 1` entries over all passes.
    twiddles: Vec<Complex64>,
}

impl MixedPlan {
    fn new(n: usize, radices: Vec<usize>) -> Self {
        let roots = Roots::new(n);
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut s = 1;
        for &p in &radices {
            let m = n / (s * p);
            for j in 0..m {
                // j·t·s < n: every twiddle is an n-th root of unity.
                twiddles.extend((1..p).map(|t| roots.root(j * t * s)));
            }
            s *= p;
        }
        MixedPlan {
            n,
            radices: radices.into_boxed_slice(),
            twiddles,
        }
    }

    /// Heap bytes this plan's tables hold.
    fn table_bytes(&self) -> usize {
        self.twiddles.capacity() * std::mem::size_of::<Complex64>()
            + self.radices.len() * std::mem::size_of::<usize>()
    }

    /// In-place forward transform; `work` is the length-`n` ping-pong
    /// buffer.
    fn fft(&self, buf: &mut [Complex64], work: &mut Vec<Complex64>) {
        debug_assert_eq!(buf.len(), self.n);
        stockham(&self.radices, buf, work, &self.twiddles[..]);
    }
}

/// Where the radix passes read their twiddles: a [`MixedPlan`]'s filled
/// table (`&[Complex64]`, each pass's rows taken off its front) or the
/// [`Roots`] that table is filled from (`&Roots`, one product per twiddle
/// as the pass reaches it). Both yield the same bits.
///
/// A row is anything that borrows as a slice: the table lends its rows in
/// place, while the roots compute each into an array. Rows typed as arrays
/// on the table side too (copied, or borrowed as `&[Complex64; Q]`) made a
/// cached 180-point transform 4–10% slower.
trait Twiddles {
    /// The rows of the next pass, of radix `Q + 1` at stride `s` over `m`
    /// groups: row `j` holds `e^{−2πi j·t·s/n}` for `t = 1..=Q`.
    fn next_pass<const Q: usize>(
        &mut self,
        s: usize,
        m: usize,
    ) -> impl Iterator<Item = impl Borrow<[Complex64]>>;
}

impl Twiddles for &[Complex64] {
    fn next_pass<const Q: usize>(
        &mut self,
        _s: usize,
        m: usize,
    ) -> impl Iterator<Item = impl Borrow<[Complex64]>> {
        let (pass, rest) = self.split_at(Q * m);
        *self = rest;
        pass.chunks_exact(Q)
    }
}

impl Twiddles for &Roots {
    fn next_pass<const Q: usize>(
        &mut self,
        s: usize,
        m: usize,
    ) -> impl Iterator<Item = impl Borrow<[Complex64]>> {
        let roots = *self;
        // j·t·s < n: every twiddle is an n-th root of unity.
        (0..m).map(move |j| std::array::from_fn::<_, Q, _>(|t| roots.root(j * (t + 1) * s)))
    }
}

/// The self-sorting passes `radices` (see [`smooth_radices`]) of the
/// forward transform of `buf`, in place; `work` is the ping-pong buffer,
/// grown to `buf.len()` if shorter.
fn stockham(
    radices: &[usize],
    buf: &mut [Complex64],
    work: &mut Vec<Complex64>,
    mut twiddles: impl Twiddles,
) {
    let n = buf.len();
    if work.len() < n {
        work.resize(n, Complex64::ZERO);
    }
    let mut src: &mut [Complex64] = buf;
    let mut dst: &mut [Complex64] = &mut work[..n];
    let mut s = 1;
    for &p in radices {
        let m = n / (s * p);
        match p {
            2 => pass2(src, dst, s, twiddles.next_pass::<1>(s, m)),
            3 => pass3(src, dst, s, twiddles.next_pass::<2>(s, m)),
            4 => pass4(src, dst, s, twiddles.next_pass::<3>(s, m)),
            _ => pass5(src, dst, s, twiddles.next_pass::<4>(s, m)),
        }
        s *= p;
        std::mem::swap(&mut src, &mut dst);
    }
    // After an odd number of passes the result sits in `work`.
    if radices.len() % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

/// `−i·z`.
#[inline]
fn mul_neg_i(z: Complex64) -> Complex64 {
    Complex64::new(z.im, -z.re)
}

/// Splits `src` into the `P` blocks of `s·m` elements a radix-`P` pass
/// reads from: element `j` of block `r` is input `j + r·m` of every
/// interleaved sequence.
#[inline]
fn blocks<const P: usize>(src: &[Complex64]) -> [&[Complex64]; P] {
    let len = src.len() / P;
    std::array::from_fn(|r| &src[r * len..(r + 1) * len])
}

// Each pass reads one twiddle row per group `j`, in order (see
// `Twiddles::next_pass`).

fn pass2(
    src: &[Complex64],
    dst: &mut [Complex64],
    s: usize,
    tw: impl Iterator<Item = impl Borrow<[Complex64]>>,
) {
    let [x0, x1] = blocks::<2>(src);
    for (j, (out, w)) in dst.chunks_exact_mut(2 * s).zip(tw).enumerate() {
        let w = w.borrow()[0];
        let (x0, x1) = (&x0[s * j..][..s], &x1[s * j..][..s]);
        let (y0, y1) = out.split_at_mut(s);
        for q in 0..s {
            let (a0, a1) = (x0[q], x1[q]);
            y0[q] = a0 + a1;
            y1[q] = (a0 - a1) * w;
        }
    }
}

fn pass3(
    src: &[Complex64],
    dst: &mut [Complex64],
    s: usize,
    tw: impl Iterator<Item = impl Borrow<[Complex64]>>,
) {
    let half_sqrt3 = 0.5 * 3f64.sqrt();
    let [x0, x1, x2] = blocks::<3>(src);
    for (j, (out, w)) in dst.chunks_exact_mut(3 * s).zip(tw).enumerate() {
        let w = w.borrow();
        let (x0, x1, x2) = (&x0[s * j..][..s], &x1[s * j..][..s], &x2[s * j..][..s]);
        let (y0, rest) = out.split_at_mut(s);
        let (y1, y2) = rest.split_at_mut(s);
        for q in 0..s {
            let (a0, a1, a2) = (x0[q], x1[q], x2[q]);
            let sum = a1 + a2;
            let mid = a0 - sum.scale(0.5);
            let rot = mul_neg_i(a1 - a2).scale(half_sqrt3);
            y0[q] = a0 + sum;
            y1[q] = (mid + rot) * w[0];
            y2[q] = (mid - rot) * w[1];
        }
    }
}

fn pass4(
    src: &[Complex64],
    dst: &mut [Complex64],
    s: usize,
    tw: impl Iterator<Item = impl Borrow<[Complex64]>>,
) {
    let [x0, x1, x2, x3] = blocks::<4>(src);
    for (j, (out, w)) in dst.chunks_exact_mut(4 * s).zip(tw).enumerate() {
        let w = w.borrow();
        let (x0, x1) = (&x0[s * j..][..s], &x1[s * j..][..s]);
        let (x2, x3) = (&x2[s * j..][..s], &x3[s * j..][..s]);
        let (y0, rest) = out.split_at_mut(s);
        let (y1, rest) = rest.split_at_mut(s);
        let (y2, y3) = rest.split_at_mut(s);
        for q in 0..s {
            let (a0, a1, a2, a3) = (x0[q], x1[q], x2[q], x3[q]);
            let (e0, e1) = (a0 + a2, a0 - a2);
            let (o0, o1) = (a1 + a3, mul_neg_i(a1 - a3));
            y0[q] = e0 + o0;
            y1[q] = (e1 + o1) * w[0];
            y2[q] = (e0 - o0) * w[1];
            y3[q] = (e1 - o1) * w[2];
        }
    }
}

fn pass5(
    src: &[Complex64],
    dst: &mut [Complex64],
    s: usize,
    tw: impl Iterator<Item = impl Borrow<[Complex64]>>,
) {
    let (s1, c1) = (2.0 * PI / 5.0).sin_cos();
    let (s2, c2) = (4.0 * PI / 5.0).sin_cos();
    let [x0, x1, x2, x3, x4] = blocks::<5>(src);
    for (j, (out, w)) in dst.chunks_exact_mut(5 * s).zip(tw).enumerate() {
        let w = w.borrow();
        let (x0, x1, x2) = (&x0[s * j..][..s], &x1[s * j..][..s], &x2[s * j..][..s]);
        let (x3, x4) = (&x3[s * j..][..s], &x4[s * j..][..s]);
        let (y0, rest) = out.split_at_mut(s);
        let (y1, rest) = rest.split_at_mut(s);
        let (y2, rest) = rest.split_at_mut(s);
        let (y3, y4) = rest.split_at_mut(s);
        for q in 0..s {
            let a0 = x0[q];
            let (t1, d1) = (x1[q] + x4[q], x1[q] - x4[q]);
            let (t2, d2) = (x2[q] + x3[q], x2[q] - x3[q]);
            let m1 = a0 + t1.scale(c1) + t2.scale(c2);
            let m2 = a0 + t1.scale(c2) + t2.scale(c1);
            let r1 = mul_neg_i(d1.scale(s1) + d2.scale(s2));
            let r2 = mul_neg_i(d1.scale(s2) - d2.scale(s1));
            y0[q] = a0 + t1 + t2;
            y1[q] = (m1 + r1) * w[0];
            y2[q] = (m2 + r2) * w[1];
            y3[q] = (m2 - r2) * w[2];
            y4[q] = (m1 - r1) * w[3];
        }
    }
}

/// A cached complex plan for one length.
#[derive(Clone)]
enum Plan {
    Mixed(Arc<MixedPlan>),
    Bluestein(Arc<BluesteinPlan>),
}

impl Plan {
    fn fft(&self, buf: &mut [Complex64], conv: &mut Vec<Complex64>, work: &mut Vec<Complex64>) {
        match self {
            Plan::Mixed(p) => p.fft(buf, work),
            Plan::Bluestein(p) => p.fft(buf, conv, work),
        }
    }

    /// Heap bytes of the plan's own tables.
    fn table_bytes(&self) -> usize {
        match self {
            Plan::Mixed(p) => p.table_bytes(),
            Plan::Bluestein(p) => p.table_bytes(),
        }
    }

    /// Strong references to the plan: 1 when only the cache holds it.
    fn refs(&self) -> usize {
        match self {
            Plan::Mixed(p) => Arc::strong_count(p),
            Plan::Bluestein(p) => Arc::strong_count(p),
        }
    }
}

/// Precomputed state for the packed real-input transform of even length `n`:
/// one length-`n/2` complex FFT plus a conjugate-symmetric untangle pass.
struct PackedReal {
    n: usize,
    /// Untangle twiddles `e^{−2πi k / n}` for `k ≤ n/2`.
    twiddles: Vec<Complex64>,
    /// Complex plan of length `n/2`.
    inner: Plan,
}

impl PackedReal {
    fn new(n: usize, inner: Plan) -> Self {
        debug_assert!(n >= 2 && n.is_multiple_of(2));
        let m = n / 2;
        let roots = Roots::new(n);
        let twiddles = (0..=m).map(|k| roots.root(k)).collect();
        PackedReal { n, twiddles, inner }
    }

    /// Heap bytes of the untangle twiddles; the inner half-length plan is
    /// a cache entry of its own.
    fn table_bytes(&self) -> usize {
        self.twiddles.capacity() * std::mem::size_of::<Complex64>()
    }

    /// Forward: each bin `0..=n/2` of the one-sided spectrum of the real
    /// samples `map(i, input[i])` to `sink` (see [`packed_fft`]).
    fn fft(
        &self,
        input: &[f64],
        map: impl Fn(usize, f64) -> f64,
        sink: impl FnMut(usize, Complex64),
        buffers: &mut Buffers,
    ) {
        debug_assert_eq!(input.len(), self.n);
        packed_fft(
            input,
            map,
            sink,
            buffers,
            |half, conv, work| self.inner.fft(half, conv, work),
            |k| self.twiddles[k],
        );
    }

    /// Inverse: the length-`n` real signal whose one-sided spectrum is
    /// `spectrum`, scaled by `1/n` so it exactly undoes [`PackedReal::fft`].
    fn ifft(&self, spectrum: &[Complex64], out: &mut Vec<f64>, buffers: &mut Buffers) {
        let n = self.n;
        let m = n / 2;
        debug_assert_eq!(spectrum.len(), m + 1);
        let Buffers {
            conv, work, half, ..
        } = buffers;
        half.clear();
        half.reserve(m);
        for (k, w) in self.twiddles.iter().enumerate().take(m) {
            let xk = spectrum[k];
            let xmk = spectrum[m - k].conj();
            let fe = (xk + xmk).scale(0.5);
            let fo = (xk - xmk).scale(0.5) * w.conj();
            // Z[k] = Fe[k] + i·Fo[k] re-packs the two sub-spectra.
            half.push(fe + Complex64::new(0.0, 1.0) * fo);
        }
        // Inverse half-length FFT via conjugation, scaled 1/m; the packed
        // layout means the 1/m scale is exactly the 1/n the convention wants.
        for z in half.iter_mut() {
            *z = z.conj();
        }
        self.inner.fft(half, conv, work);
        let scale = 1.0 / m as f64;
        out.clear();
        out.reserve(n);
        for z in half.iter() {
            let z = z.conj().scale(scale);
            out.push(z.re);
            out.push(z.im);
        }
    }
}

/// The packed forward transform of an even-length real input: each bin
/// `0..=n/2` of the one-sided spectrum of the samples `map(i, input[i])`
/// to `sink`. `half_fft` transforms the `n/2` packed points in place (with
/// `conv` and `work` as its scratch), and `twiddle(k)` is `e^{−2πik/n}`
/// for `k ≤ n/4`.
///
/// Packs adjacent mapped samples into `n/2` complex points, transforms
/// them, then untangles the interleaved even/odd sub-spectra: with
/// `Fe`/`Fo` the DFTs of the even- and odd-indexed samples,
/// `X[k] = Fe[k] + e^{−2πik/n}·Fo[k]`.
fn packed_fft(
    input: &[f64],
    map: impl Fn(usize, f64) -> f64,
    mut sink: impl FnMut(usize, Complex64),
    buffers: &mut Buffers,
    half_fft: impl FnOnce(&mut [Complex64], &mut Vec<Complex64>, &mut Vec<Complex64>),
    twiddle: impl Fn(usize) -> Complex64,
) {
    let m = input.len() / 2;
    let Buffers {
        conv, work, half, ..
    } = buffers;
    half.clear();
    let pairs = input.chunks_exact(2).enumerate();
    half.extend(pairs.map(|(j, p)| Complex64::new(map(2 * j, p[0]), map(2 * j + 1, p[1]))));
    half_fft(half, conv, work);
    // k = 0 and k = m both untangle from Z[0] alone (Fe₀ = Re Z₀,
    // Fo₀ = Im Z₀; w[0] = 1, w[m] = −1).
    sink(0, Complex64::from_real(half[0].re + half[0].im));
    sink(m, Complex64::from_real(half[0].re - half[0].im));
    // Interior bins pair up: with t = w[k]·Fo[k],
    // X[k] = Fe[k] + t and X[m−k] = conj(Fe[k] − t), so one pass over
    // k < m/2 settles both ends with a single twiddle multiply. The
    // midpoint of an even m takes the second form.
    let untangle = |k: usize| {
        let zk = half[k];
        let zmk = half[m - k].conj();
        let fe = (zk + zmk).scale(0.5);
        let fo = (zk - zmk) * Complex64::new(0.0, -0.5);
        let t = twiddle(k) * fo;
        (fe + t, (fe - t).conj())
    };
    for k in 1..m.div_ceil(2) {
        let (low, high) = untangle(k);
        sink(k, low);
        sink(m - k, high);
    }
    if m.is_multiple_of(2) {
        sink(m / 2, untangle(m / 2).1);
    }
}

/// The forward transform of an odd-length real input promoted to complex:
/// the samples `map(i, input[i])` loaded into `full`, transformed in place
/// by `fft` (with `work` as its scratch), and the first half of the bins
/// to `sink`.
fn promoted_fft(
    input: &[f64],
    map: impl Fn(usize, f64) -> f64,
    mut sink: impl FnMut(usize, Complex64),
    buffers: &mut Buffers,
    fft: impl FnOnce(&mut [Complex64], &mut Vec<Complex64>),
) {
    let Buffers { work, full, .. } = buffers;
    full.clear();
    let samples = input.iter().enumerate();
    full.extend(samples.map(|(i, &x)| Complex64::from_real(map(i, x))));
    fft(full, work);
    for (k, &c) in full[..one_sided_len(input.len())].iter().enumerate() {
        sink(k, c);
    }
}

/// A cached real-input plan for one length `n ≥ 2`.
enum RealPlan {
    /// Even `n`: the packed transform over the complex plan of `n/2`.
    Packed(PackedReal),
    /// Odd `n` with a prime factor above 5: Bluestein for the one-sided
    /// bins only.
    OneSided(BluesteinPlan),
    /// Odd 5-smooth `n`: the mixed-radix transform of the input promoted
    /// to complex, first half kept.
    Promoted(Arc<MixedPlan>),
}

impl RealPlan {
    /// Forward: each bin of the one-sided spectrum of the real samples
    /// `map(i, input[i])` to `sink` (see [`FftPlanner::fft_real_with`]).
    fn fft(
        &self,
        input: &[f64],
        map: impl Fn(usize, f64) -> f64,
        sink: impl FnMut(usize, Complex64),
        buffers: &mut Buffers,
    ) {
        match self {
            RealPlan::Packed(p) => p.fft(input, map, sink, buffers),
            RealPlan::OneSided(p) => {
                p.fft_real(input, map, sink, &mut buffers.conv, &mut buffers.work)
            }
            RealPlan::Promoted(p) => {
                promoted_fft(input, map, sink, buffers, |full, work| p.fft(full, work))
            }
        }
    }

    /// Heap bytes of the plan's own tables. A promoted plan has none: its
    /// mixed-radix plan is a cache entry of its own.
    fn table_bytes(&self) -> usize {
        match self {
            RealPlan::Packed(p) => p.table_bytes(),
            RealPlan::OneSided(p) => p.table_bytes(),
            RealPlan::Promoted(_) => 0,
        }
    }
}

/// Caching FFT planner — the per-thread spectral context.
///
/// Create once and lend it to every transform: tables are computed lazily
/// per length and cached, and the working buffers are reused, so repeated
/// transforms pay neither again. A planner has one owner (a loop, or a
/// fleet worker stepping many devices in turn) and is `Send`, so a worker
/// thread can take one along.
///
/// ```
/// use sweetspot_dsp::fft::FftPlanner;
/// use sweetspot_dsp::Complex64;
///
/// let mut p = FftPlanner::new();
/// // Arbitrary (non-power-of-two) lengths are fine:
/// let mut buf = vec![Complex64::ONE; 12];
/// p.fft_in_place(&mut buf);
/// assert!((buf[0].re - 12.0).abs() < 1e-9); // DC bin = Σ x_n
/// ```
#[derive(Default)]
pub struct FftPlanner {
    /// The lazily grown table cache.
    tables: PlanTables,
    /// The transforms' working storage.
    buffers: Buffers,
}

/// Plan-request statistics of one analysis: each transform of length `n`
/// is one request, a *miss* the first request of that length and a *hit*
/// every later one.
///
/// Counted per requester, not per table cache, deliberately: a cache's hit
/// pattern depends on which requesters share it — i.e. on the worker-shard
/// topology — while one requester's sequence of lengths is a pure function
/// of the signal it analyzes. The §4.2 controller keeps these for its two
/// periodograms (`AdaptiveSampler::fft_handle_stats`), so summing them over
/// a fleet in device order gives the same totals for any `--threads N`,
/// which is what lets them ride in the deterministic metrics snapshot. A
/// miss says nothing about whether the worker's cache already held the
/// table or has since dropped it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FftHandleStats {
    /// Requests for a length already requested.
    pub hits: Counter,
    /// First-time lengths.
    pub misses: Counter,
}

impl FftHandleStats {
    /// Plan requests issued (one per transform of length ≥ 2): every
    /// request is exactly one hit or one miss.
    pub fn lookups(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Folds another requester's counts into this one.
    pub fn merge(&mut self, other: &FftHandleStats) {
        self.hits.merge(other.hits);
        self.misses.merge(other.misses);
    }
}

/// The map each kind of table is cached in. Its hash order never reaches a
/// result: tables are only looked up by key, and an over-budget sweep drops
/// every unreferenced table whatever order it meets them in.
#[allow(clippy::disallowed_types, reason = "lookups by key only")]
type TableMap<K, V> = std::collections::HashMap<K, V>;

/// Every cached table, with the cache's byte budget and build clock.
///
/// Each table is charged its own bytes once, under its own entry: a plan
/// nested in another (a Bluestein plan's convolution plan, a real plan's
/// complex plan) is an entry of `complex` in its own right, shared through
/// its `Arc`. Nothing leaves a map while anything references it (see
/// [`PlanTables::enforce_budget`]), so `resident` is exactly the heap the
/// cached tables hold.
#[derive(Default)]
struct PlanTables {
    /// Complex plans: mixed-radix for 5-smooth lengths, Bluestein for the
    /// rest.
    complex: TableMap<usize, Plan>,
    real: TableMap<usize, Arc<RealPlan>>,
    windows: TableMap<(Window, usize), Arc<WindowTable>>,
    /// Byte cap on `resident`; `None` (the default) means unbounded.
    budget: Option<usize>,
    /// Sum of the own bytes of every table held.
    resident: usize,
    /// Wall time spent building tables (see [`PlanTables::timed`]).
    build_time: Duration,
    /// Set while a build is being timed, so nested builds count once.
    building: bool,
}

impl PlanTables {
    /// Runs the table build `build`, adding its wall time to `build_time`.
    /// A build nested in a timed one (a real plan's inner complex plan, a
    /// Bluestein plan's convolution plan) is already inside that clock, so
    /// it is not counted again.
    #[allow(clippy::disallowed_methods, reason = "build time, for `--timing`")]
    fn timed<T>(&mut self, build: impl FnOnce(&mut PlanTables) -> T) -> T {
        if self.building {
            return build(self);
        }
        self.building = true;
        let start = Instant::now();
        let out = build(self);
        self.build_time += start.elapsed();
        self.building = false;
        out
    }

    /// Caches a freshly built `table` of `bytes` own heap bytes under `key`
    /// in the map `map` selects, then enforces the budget. The copy handed
    /// back is a reference from outside the cache, so the enforcement keeps
    /// `table` and every table it nests.
    fn admit<K: Hash + Eq, T: Clone>(
        &mut self,
        map: fn(&mut PlanTables) -> &mut TableMap<K, T>,
        key: K,
        table: T,
        bytes: usize,
    ) -> T {
        self.resident += bytes;
        map(self).insert(key, table.clone());
        self.enforce_budget();
        table
    }

    /// The complex plan for `len`: mixed-radix for lengths with no prime
    /// factor above 5, Bluestein for the rest. A hit is one lookup and never
    /// allocates.
    fn plan(&mut self, len: usize) -> Plan {
        if let Some(plan) = self.complex.get(&len) {
            return plan.clone();
        }
        let plan = self.timed(|t| match smooth_radices(len) {
            Some(radices) => Plan::Mixed(Arc::new(MixedPlan::new(len, radices))),
            None => Plan::Bluestein(Arc::new(t.bluestein_plan(len, len))),
        });
        let bytes = plan.table_bytes();
        self.admit(|t| &mut t.complex, len, plan, bytes)
    }

    /// The mixed-radix plan for a length with no prime factor above 5.
    fn mixed_plan(&mut self, len: usize) -> Arc<MixedPlan> {
        match self.plan(len) {
            Plan::Mixed(plan) => plan,
            Plan::Bluestein(_) => unreachable!("5-smooth lengths get mixed-radix plans"),
        }
    }

    /// A Bluestein plan yielding `bins` outputs of length `n`, its inner
    /// plan at the ladder length that holds the `n + bins − 1`-point
    /// convolution.
    fn bluestein_plan(&mut self, n: usize, bins: usize) -> BluesteinPlan {
        let inner = self.mixed_plan(conv_len(n + bins - 1));
        BluesteinPlan::new(n, bins, inner)
    }

    /// The real-input plan for `n ≥ 2` (see [`RealPlan`]).
    fn real_plan(&mut self, n: usize) -> Arc<RealPlan> {
        debug_assert!(n >= 2);
        if let Some(plan) = self.real.get(&n) {
            return plan.clone();
        }
        let plan = self.timed(|t| {
            if n.is_multiple_of(2) {
                RealPlan::Packed(PackedReal::new(n, t.plan(n / 2)))
            } else if is_smooth(n) {
                RealPlan::Promoted(t.mixed_plan(n))
            } else {
                RealPlan::OneSided(t.bluestein_plan(n, one_sided_len(n)))
            }
        });
        let bytes = plan.table_bytes();
        self.admit(|t| &mut t.real, n, Arc::new(plan), bytes)
    }

    fn window_table(&mut self, window: Window, n: usize) -> Arc<WindowTable> {
        if let Some(table) = self.windows.get(&(window, n)) {
            return table.clone();
        }
        let table = self.timed(|_| WindowTable::new(window, n));
        let bytes = table.resident_bytes();
        self.admit(|t| &mut t.windows, (window, n), Arc::new(table), bytes)
    }

    /// Over budget, drops every table nothing outside the cache references,
    /// and repeats until nothing more drops: an outer plan holds its inner
    /// plan's `Arc`, so dropping it can free the inner one.
    ///
    /// The table an admission is about to hand out is held by its caller,
    /// and so is every table it nests, so the newest plan is always served,
    /// however large (the cache just holds nothing unreferenced alongside
    /// it).
    fn enforce_budget(&mut self) {
        if self.budget.is_none_or(|budget| self.resident <= budget) {
            return;
        }
        loop {
            let before = self.len();
            let resident = &mut self.resident;
            // Keeps a table referenced outside the cache; the rest drop, and
            // their bytes leave `resident`.
            let mut keep = |refs: usize, bytes: usize| {
                if refs == 1 {
                    *resident -= bytes;
                }
                refs > 1
            };
            self.real
                .retain(|_, p| keep(Arc::strong_count(p), p.table_bytes()));
            self.complex.retain(|_, p| keep(p.refs(), p.table_bytes()));
            self.windows
                .retain(|_, w| keep(Arc::strong_count(w), w.resident_bytes()));
            if self.len() == before {
                return;
            }
        }
    }

    /// Number of cached tables.
    fn len(&self) -> usize {
        self.complex.len() + self.real.len() + self.windows.len()
    }
}

impl FftPlanner {
    /// Creates a planner with an empty table cache and empty buffers.
    pub fn new() -> Self {
        FftPlanner::default()
    }

    /// The cached coefficient table for `window` at length `n`.
    ///
    /// Built once per `(window, n)`; spectral estimators multiply by the
    /// table instead of re-evaluating trig per sample per segment.
    pub(crate) fn window_table(&mut self, window: Window, n: usize) -> Arc<WindowTable> {
        self.tables.window_table(window, n)
    }

    /// Caps the table cache at `budget` bytes (`None` removes the cap, the
    /// default). Whenever a new table (or a lowered cap) takes the cache
    /// over budget, it drops every table nothing outside it references;
    /// tables are pure functions of their length, so a drop never changes
    /// any result — a re-requested length rebuilds the identical table and
    /// pays only setup time.
    pub fn set_table_budget(&mut self, budget: Option<usize>) {
        self.tables.budget = budget;
        self.tables.enforce_budget();
    }

    /// Heap bytes the cached tables hold: every table is allocated at its
    /// own length and charged once (a plan nested in another is charged
    /// under its own entry), so this is each table's entries times their
    /// size; the maps' buckets and the `Arc` headers are not counted. The
    /// untangle table of a 129 600-sample real transform, for one, is its
    /// 64 801 entries: 1.04 MB.
    pub fn table_bytes(&self) -> usize {
        self.tables.resident
    }

    /// Heap bytes the working buffers hold (capacities, not lengths) — the
    /// per-worker scratch of the fleet engine's memory accounting, which
    /// counts the tables apart ([`FftPlanner::table_bytes`]).
    pub fn buffer_bytes(&self) -> usize {
        self.buffers.bytes()
    }

    /// Wall time the table cache has spent building tables — twiddles,
    /// chirps, convolution kernels and window coefficients — each nested
    /// build counted once. Wall scope, for `--timing` reports only: it
    /// varies run to run and never feeds a result.
    pub fn table_build_time(&self) -> Duration {
        self.tables.build_time
    }

    /// Forward DFT, in place, unnormalized. Any length (including 0 and 1,
    /// which are no-ops).
    pub fn fft_in_place(&mut self, buf: &mut [Complex64]) {
        let n = buf.len();
        if n <= 1 {
            return;
        }
        let plan = self.tables.plan(n);
        plan.fft(buf, &mut self.buffers.conv, &mut self.buffers.work);
    }

    /// Inverse DFT, in place, scaled by `1/N` so it exactly undoes
    /// [`fft_in_place`](FftPlanner::fft_in_place).
    pub fn ifft_in_place(&mut self, buf: &mut [Complex64]) {
        let n = buf.len();
        if n <= 1 {
            return;
        }
        for x in buf.iter_mut() {
            *x = x.conj();
        }
        self.fft_in_place(buf);
        let scale = 1.0 / n as f64;
        for x in buf.iter_mut() {
            *x = x.conj().scale(scale);
        }
    }

    /// Forward DFT of a real signal into `out` as a **one-sided** spectrum:
    /// bins `0..=n/2` ([`one_sided_len`] entries; the mirror half is implied
    /// by conjugate symmetry). Steady state allocates nothing once `out`
    /// and the planner's buffers have capacity.
    ///
    /// Even lengths take the packed fast path (one `n/2` complex FFT); odd
    /// lengths run a one-sided Bluestein, or the full mixed-radix transform
    /// when `n` has no prime factor above 5.
    pub fn fft_real_into(&mut self, input: &[f64], out: &mut Vec<Complex64>) {
        out.clear();
        out.resize(one_sided_len(input.len()), Complex64::ZERO);
        self.fft_real_with(input, |_, x| x, |k, c| out[k] = c);
    }

    /// The kernel behind every forward real transform: the one-sided
    /// spectrum of the real signal `x[i] = map(i, input[i])`, with each bin
    /// `k` handed to `sink(k, X_k)` exactly once, in no particular order.
    ///
    /// The map runs as each plan loads its input and the sink as it emits
    /// its output, so a caller that tapers the signal or only wants the
    /// power spectrum (the periodogram) needs no copy of either. A map or
    /// sink that performs the same floating-point operations as a separate
    /// pass yields the same bits.
    pub(crate) fn fft_real_with(
        &mut self,
        input: &[f64],
        map: impl Fn(usize, f64) -> f64,
        mut sink: impl FnMut(usize, Complex64),
    ) {
        match input {
            [] => {}
            [x] => sink(0, Complex64::from_real(map(0, *x))),
            _ => {
                let plan = self.tables.real_plan(input.len());
                plan.fft(input, map, sink, &mut self.buffers)
            }
        }
    }

    /// [`fft_real_with`](FftPlanner::fft_real_with) for a transform run
    /// once: at a 5-smooth length every pass reads its twiddles from a
    /// [`Roots`] table as it reaches them, so nothing of the input's length
    /// but the working buffers is built, and the table cache is neither
    /// read nor grown. Each twiddle is the `Roots` product the cached
    /// tables store, so every output bit is the same. Other lengths run the
    /// cached route.
    pub(crate) fn fft_real_once_with(
        &mut self,
        input: &[f64],
        map: impl Fn(usize, f64) -> f64,
        sink: impl FnMut(usize, Complex64),
    ) {
        let n = input.len();
        if n < 2 || !is_smooth(n) {
            return self.fft_real_with(input, map, sink);
        }
        // The complex transform: n/2 packed points, or the odd n promoted.
        let len = if n.is_multiple_of(2) { n / 2 } else { n };
        let radices = smooth_radices(len).expect("a factor of a 5-smooth length is 5-smooth");
        if n.is_multiple_of(2) {
            let (roots, half_roots) = (Roots::new(n), Roots::new(len));
            packed_fft(
                input,
                map,
                sink,
                &mut self.buffers,
                |half, _, work| stockham(&radices, half, work, &half_roots),
                |k| roots.root(k),
            );
        } else {
            let roots = Roots::new(n);
            promoted_fft(input, map, sink, &mut self.buffers, |full, work| {
                stockham(&radices, full, work, &roots)
            });
        }
    }

    /// Inverse of [`fft_real_into`](FftPlanner::fft_real_into): reconstructs
    /// the length-`n` real signal from its one-sided `spectrum`
    /// ([`one_sided_len`]`(n)` bins), scaled by `1/n`.
    ///
    /// # Panics
    /// Panics if `spectrum.len() != one_sided_len(n)`.
    pub fn ifft_real_into(&mut self, spectrum: &[Complex64], n: usize, out: &mut Vec<f64>) {
        assert_eq!(
            spectrum.len(),
            one_sided_len(n),
            "one-sided spectrum of an n={n} signal must have {} bins",
            one_sided_len(n)
        );
        out.clear();
        match n {
            0 => {}
            1 => out.push(spectrum[0].re),
            _ if n.is_multiple_of(2) => {
                let RealPlan::Packed(plan) = &*self.tables.real_plan(n) else {
                    unreachable!("even lengths get packed real plans")
                };
                plan.ifft(spectrum, out, &mut self.buffers);
            }
            _ => {
                // Odd length: expand to the full spectrum by conjugate
                // symmetry, then a complex inverse transform.
                let plan = self.tables.plan(n);
                let Buffers {
                    conv, work, full, ..
                } = &mut self.buffers;
                full.clear();
                full.reserve(n);
                full.extend_from_slice(spectrum);
                for k in (1..=(n - 1) / 2).rev() {
                    full.push(spectrum[k].conj());
                }
                for z in full.iter_mut() {
                    *z = z.conj();
                }
                plan.fft(full, conv, work);
                let scale = 1.0 / n as f64;
                out.extend(full.iter().map(|z| z.re * scale));
            }
        }
    }
}

/// Reference `O(N²)` DFT used to validate the fast paths in tests.
/// Forward, unnormalized.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|t| {
                    input[t] * Complex64::cis(-2.0 * PI * (t * k % n.max(1)) as f64 / n as f64)
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.re - y.re).abs() <= tol && (x.im - y.im).abs() <= tol,
                "bin {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// All `n` bins of a real signal's spectrum: the one-sided transform
    /// plus its conjugate mirror.
    fn full_spectrum(p: &mut FftPlanner, input: &[f64]) -> Vec<Complex64> {
        let n = input.len();
        let mut out = Vec::with_capacity(n);
        p.fft_real_into(input, &mut out);
        for j in out.len()..n {
            out.push(out[n - j].conj());
        }
        out
    }

    fn impulse(n: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; n];
        v[0] = Complex64::ONE;
        v
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut p = FftPlanner::new();
        for n in [2usize, 4, 8, 64, 3, 5, 12, 100] {
            let mut buf = impulse(n);
            p.fft_in_place(&mut buf);
            for b in &buf {
                assert!((b.re - 1.0).abs() < 1e-9 && b.im.abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn matches_naive_dft_pow2() {
        let mut p = FftPlanner::new();
        let input: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let expected = dft_naive(&input);
        let mut buf = input;
        p.fft_in_place(&mut buf);
        assert_close(&buf, &expected, 1e-9);
    }

    #[test]
    fn matches_naive_dft_arbitrary_lengths() {
        let mut p = FftPlanner::new();
        for n in [3usize, 5, 6, 7, 9, 11, 15, 17, 31, 50, 101] {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let expected = dft_naive(&input);
            let mut buf = input;
            p.fft_in_place(&mut buf);
            assert_close(&buf, &expected, 1e-8);
        }
    }

    #[test]
    fn roundtrip_identity() {
        let mut p = FftPlanner::new();
        for n in [1usize, 2, 8, 13, 64, 100, 257] {
            let orig: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
                .collect();
            let mut buf = orig.clone();
            p.fft_in_place(&mut buf);
            p.ifft_in_place(&mut buf);
            assert_close(&buf, &orig, 1e-9);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let mut p = FftPlanner::new();
        let n = 128;
        let k0 = 5;
        let input: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = full_spectrum(&mut p, &input);
        // cos splits into bins k0 and n−k0, each with magnitude n/2.
        assert!((spec[k0].norm() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k0].norm() - n as f64 / 2.0).abs() < 1e-9);
        for (k, b) in spec.iter().enumerate() {
            if k != k0 && k != n - k0 {
                assert!(b.norm() < 1e-9, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn real_input_spectrum_is_conjugate_symmetric() {
        let mut p = FftPlanner::new();
        let n = 90; // even, non-pow2: a mixed-radix plan
        let mut spec: Vec<Complex64> = (0..n)
            .map(|i| Complex64::from_real((i as f64 * 0.21).sin() + 0.3))
            .collect();
        p.fft_in_place(&mut spec);
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
        }
    }

    #[test]
    fn rfft_one_sided_matches_full_complex_fft() {
        let mut p = FftPlanner::new();
        // Even pow2, mixed-radix-half and Bluestein-half, odd, and tiny
        // lengths.
        for n in [
            2usize, 4, 8, 64, 256, 6, 10, 12, 90, 100, 1000, 14, 202, 3, 7, 45, 101,
        ] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.731).sin() + 0.2).collect();
            let mut one_sided = Vec::new();
            p.fft_real_into(&input, &mut one_sided);
            assert_eq!(one_sided.len(), one_sided_len(n));
            let mut full: Vec<Complex64> = input.iter().map(|&x| Complex64::from_real(x)).collect();
            p.fft_in_place(&mut full);
            let tol = 1e-9 * n as f64;
            for (k, c) in one_sided.iter().enumerate() {
                assert!(
                    (c.re - full[k].re).abs() < tol && (c.im - full[k].im).abs() < tol,
                    "n={n} bin {k}: {c:?} vs {:?}",
                    full[k]
                );
            }
        }
    }

    #[test]
    fn rfft_roundtrip_recovers_signal() {
        let mut p = FftPlanner::new();
        for n in [1usize, 2, 4, 12, 64, 90, 100, 3, 7, 101, 255] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.413).cos() - 0.7).collect();
            let mut spec = Vec::new();
            p.fft_real_into(&input, &mut spec);
            let mut back = Vec::new();
            p.ifft_real_into(&spec, n, &mut back);
            assert_eq!(back.len(), n);
            for (a, b) in input.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn planner_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FftPlanner>();

        let sig: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let mut expected = Vec::new();
        FftPlanner::new().fft_real_into(&sig, &mut expected);

        let mut warm = FftPlanner::new();
        warm.fft_real_into(&sig, &mut Vec::new());
        let from_thread = std::thread::spawn(move || {
            let mut out = Vec::new();
            warm.fft_real_into(&sig, &mut out);
            out
        })
        .join()
        .unwrap();
        assert_close(&from_thread, &expected, 0.0);
    }

    #[test]
    fn window_table_is_cached() {
        let mut p = FftPlanner::new();
        let a = p.window_table(Window::Hann, 64);
        let b = p.window_table(Window::Hann, 64);
        assert!(Arc::ptr_eq(&a, &b));
        let c = p.window_table(Window::Hann, 65);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn parseval_energy_conserved() {
        let mut p = FftPlanner::new();
        for n in [32usize, 77] {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.9).sin(), 0.1 * i as f64))
                .collect();
            let time_energy: f64 = input.iter().map(|c| c.norm_sqr()).sum();
            let mut buf = input;
            p.fft_in_place(&mut buf);
            let freq_energy: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
            assert!(
                (time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0),
                "n={n}"
            );
        }
    }

    #[test]
    fn linearity() {
        let mut p = FftPlanner::new();
        let n = 24;
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (i as f64).cos()))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y.scale(2.0)).collect();

        let mut fa = a.clone();
        p.fft_in_place(&mut fa);
        let mut fb = b.clone();
        p.fft_in_place(&mut fb);
        let mut fsum = sum;
        p.fft_in_place(&mut fsum);
        let expected: Vec<Complex64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| x + y.scale(2.0))
            .collect();
        assert_close(&fsum, &expected, 1e-8);
    }

    #[test]
    fn zero_and_one_point_are_noops() {
        let mut p = FftPlanner::new();
        let mut empty: Vec<Complex64> = vec![];
        p.fft_in_place(&mut empty);
        let mut one = vec![Complex64::new(3.0, -1.0)];
        p.fft_in_place(&mut one);
        assert_eq!(one[0], Complex64::new(3.0, -1.0));
        p.ifft_in_place(&mut one);
        assert_eq!(one[0], Complex64::new(3.0, -1.0));

        let mut out = Vec::new();
        p.fft_real_into(&[], &mut out);
        assert!(out.is_empty());
        p.fft_real_into(&[2.5], &mut out);
        assert_eq!(out, vec![Complex64::from_real(2.5)]);
        let mut back = Vec::new();
        p.ifft_real_into(&out, 1, &mut back);
        assert_eq!(back, vec![2.5]);
    }

    #[test]
    fn planner_reuse_is_consistent() {
        let mut p = FftPlanner::new();
        let input: Vec<Complex64> = (0..48).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let mut first = input.clone();
        p.fft_in_place(&mut first);
        let mut second = input;
        p.fft_in_place(&mut second);
        assert_close(&first, &second, 0.0);
    }

    #[test]
    fn tiny_length_helpers() {
        // Lengths below 2 run no plan; `smooth_radices(0)` must not spin.
        assert_eq!(smooth_radices(0), None);
        assert_eq!(smooth_radices(1), Some(vec![]));
        assert_eq!(smooth_radices(2), Some(vec![2]));
        assert!(!is_smooth(0) && is_smooth(1) && is_smooth(2));
        assert_eq!(one_sided_len(0), 0);
        assert_eq!(one_sided_len(1), 1);
        assert_eq!(one_sided_len(2), 2);
        assert_eq!(one_sided_len(8), 5);
        assert_eq!(one_sided_len(9), 5);
    }

    #[test]
    #[should_panic(expected = "one-sided spectrum")]
    fn ifft_real_into_rejects_wrong_bin_count() {
        let mut p = FftPlanner::new();
        let mut out = Vec::new();
        p.ifft_real_into(&[Complex64::ONE; 4], 8, &mut out);
    }

    #[test]
    fn table_budget_bounds_the_cache() {
        let mut p = FftPlanner::new();
        let (mut buf, mut out) = (Vec::new(), Vec::new());
        // Real transforms of the `real` lengths, then complex ones of the
        // `complex` lengths.
        let mut sweep = |p: &mut FftPlanner, real: &[usize], complex: &[usize]| {
            for &n in real {
                p.fft_real_into(&vec![1.0; n], &mut out);
            }
            for &n in complex {
                buf.clear();
                buf.resize(n, Complex64::ONE);
                p.fft_in_place(&mut buf);
            }
        };
        // Sweep many distinct non-power-of-two lengths: unbounded, the
        // cache grows with every one, mixed-radix plans included.
        let smooth = [
            150usize, 180, 240, 270, 300, 360, 375, 400, 450, 480, 500, 540,
        ];
        sweep(&mut p, &[], &smooth);
        let mixed_only = p.table_bytes();
        assert!(
            mixed_only >= 8 * smooth.iter().sum::<usize>(),
            "{mixed_only} B"
        );
        // Complex Bluestein plans and odd real lengths (one-sided
        // Bluestein, or promoted mixed-radix for the 5-smooth few).
        let bluestein: Vec<usize> = (101..151).step_by(2).collect();
        let odd: Vec<usize> = (301..351).step_by(2).collect();
        sweep(&mut p, &odd, &bluestein);
        let unbounded = p.table_bytes();
        assert!(
            unbounded > 100_000,
            "expected a grown cache, got {unbounded} B"
        );

        // Fresh lengths of every kind for the capped sweep below.
        let fresh_odd: Vec<usize> = (401..451).step_by(2).collect();
        let fresh: Vec<usize> = (201..251)
            .step_by(2)
            .chain((600..3000).step_by(120))
            .collect();
        // The newest plan is always served, however large, so the budget
        // must exceed the largest single plan chain of the sweep for the
        // cap to be checkable at all.
        let largest_chain = fresh_odd
            .iter()
            .map(|&n| (vec![n], vec![]))
            .chain(fresh.iter().map(|&n| (vec![], vec![n])))
            .map(|(real, complex)| {
                let mut q = FftPlanner::new();
                sweep(&mut q, &real, &complex);
                q.table_bytes()
            })
            .max()
            .unwrap();
        let budget = (unbounded / 8).max(largest_chain);
        assert!(budget < unbounded / 2, "{budget} vs {unbounded}");

        // Capping drops down to the budget immediately...
        p.set_table_budget(Some(budget));
        assert!(p.table_bytes() <= budget, "{} > {budget}", p.table_bytes());
        // ...and the cap holds across further sweeps of fresh lengths of
        // every kind, dropping one-sided real plans along the way.
        sweep(&mut p, &fresh_odd, &fresh);
        assert!(p.table_bytes() <= budget, "{} > {budget}", p.table_bytes());
        let tables = &p.tables;
        assert!(
            tables.complex.values().any(|p| matches!(p, Plan::Mixed(_))),
            "the sweep ends on mixed plans"
        );
        assert!(
            tables.real.len() < fresh_odd.len(),
            "{} real plans survived",
            tables.real.len()
        );
    }

    #[test]
    fn eviction_and_rebuild_is_bit_identical() {
        // Same input, three regimes: unbounded cache, a cache so small every
        // plan is rebuilt from scratch, and a plan rebuilt after a drop.
        // Tables are pure functions of length, so all spectra must match
        // bit for bit — over a mixed-radix half (300 = 2·150), a Bluestein
        // half (202 = 2·101), a power of two (256) and an odd one-sided
        // Bluestein length (203 = 7·29), churned by plans of both kinds.
        let mut tiny = FftPlanner::new();
        tiny.set_table_budget(Some(1));
        for n in [300usize, 202, 256, 203] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut reference = Vec::new();
            FftPlanner::new().fft_real_into(&input, &mut reference);
            let mut out = Vec::new();
            for _ in 0..3 {
                // Alternate lengths so each request misses and rebuilds.
                for churn_len in [77, 75] {
                    let mut churn = vec![Complex64::ONE; churn_len];
                    tiny.fft_in_place(&mut churn);
                }
                tiny.fft_real_into(&input, &mut out);
                assert_eq!(out.len(), reference.len());
                for (a, b) in out.iter().zip(&reference) {
                    assert!(a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
                }
            }
        }
        // A one-byte budget keeps at most the in-flight plan chain: the
        // length-203 one-sided plan pins its chirp plus the
        // kernel and twiddles of its 320-point convolution — ~14 kB deep.
        assert!(tiny.table_bytes() <= 32 * 1024, "{}", tiny.table_bytes());
    }

    #[test]
    fn every_smooth_length_up_to_512_matches_naive_dft() {
        let mut p = FftPlanner::new();
        for n in (2..=512).filter(|&n| smooth_radices(n).is_some()) {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() - 0.4))
                .collect();
            let expected = dft_naive(&input);
            let mut buf = input;
            p.fft_in_place(&mut buf);
            assert_relative(&buf, &expected, n);
            assert!(matches!(p.tables.complex[&n], Plan::Mixed(_)), "n={n}");
        }
        assert!(!is_smooth(2878));
        assert_eq!(bluestein_lengths(&p.tables), []);
    }

    /// The lengths of the cached complex Bluestein plans.
    fn bluestein_lengths(tables: &PlanTables) -> Vec<usize> {
        let bluestein = tables.complex.iter();
        bluestein
            .filter(|(_, p)| matches!(p, Plan::Bluestein(_)))
            .map(|(&n, _)| n)
            .collect()
    }

    /// [`dft_naive`]'s first `bins` bins with its twiddles tabulated once:
    /// the same `cis` arguments and summation order, so the same bits, at a
    /// cost that lets a debug build sweep every length up to 10³.
    fn dft_reference(input: &[Complex64], bins: usize) -> Vec<Complex64> {
        let n = input.len();
        let w: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(-2.0 * PI * j as f64 / n as f64))
            .collect();
        (0..bins)
            .map(|k| {
                input
                    .iter()
                    .enumerate()
                    .map(|(t, x)| *x * w[t * k % n])
                    .sum()
            })
            .collect()
    }

    /// Every bin of `got` within `1e-9` of `expected`'s peak magnitude.
    fn assert_relative(got: &[Complex64], expected: &[Complex64], n: usize) {
        assert_eq!(got.len(), expected.len(), "n={n}");
        let peak = expected.iter().map(|c| c.norm()).fold(0.0, f64::max);
        for (k, (x, y)) in got.iter().zip(expected).enumerate() {
            assert!(
                (*x - *y).norm() <= 1e-9 * peak,
                "n={n} bin {k}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn every_length_up_to_1024_matches_naive_dft() {
        // Powers of two and the other 5-smooth lengths run the mixed-radix
        // kernel; the rest run Bluestein at a ladder convolution length.
        let mut p = FftPlanner::new();
        for n in 2..=1024usize {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() - 0.4))
                .collect();
            let expected = dft_reference(&input, n);
            let mut buf = input;
            p.fft_in_place(&mut buf);
            assert_relative(&buf, &expected, n);
        }
    }

    #[test]
    fn every_odd_real_length_up_to_1025_matches_naive_dft() {
        // One-sided Bluestein for odd lengths with a prime factor above 5,
        // the promoted mixed-radix transform for odd 5-smooth lengths.
        let mut p = FftPlanner::new();
        let mut out = Vec::new();
        for n in (3..=1025usize).step_by(2) {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.731).sin() + 0.2).collect();
            let complex: Vec<Complex64> = input.iter().map(|&x| Complex64::from_real(x)).collect();
            p.fft_real_into(&input, &mut out);
            assert_relative(&out, &dft_reference(&complex, one_sided_len(n)), n);
            let tables = &p.tables;
            let one_sided = matches!(*tables.real[&n], RealPlan::OneSided(_));
            assert_eq!(one_sided, !is_smooth(n), "n={n}");
        }
        assert_eq!(bluestein_lengths(&p.tables), []);
    }

    #[test]
    fn smooth_real_lengths_build_no_bluestein_plan() {
        // A tracker window (6 h at 1 min), a day at 30 s and 90 days at
        // 1 min: real transforms over mixed-radix halves, with no Bluestein
        // chain anywhere in the cache.
        let mut p = FftPlanner::new();
        let mut out = Vec::new();
        for n in [360usize, 2880, 129_600] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
            p.fft_real_into(&input, &mut out);
            assert!(
                matches!(p.tables.complex[&(n / 2)], Plan::Mixed(_)),
                "n={n}"
            );
        }
        assert_eq!(bluestein_lengths(&p.tables), []);
    }

    /// Exactly representable test samples from integer arithmetic alone, so
    /// the inputs of the digest below never depend on a libm.
    fn digest_sample(i: usize, n: usize) -> f64 {
        ((i * 7919 + n * 31) % 1009) as f64 / 1009.0 - 0.5
    }

    #[test]
    fn transform_output_bits_match_committed_digest() {
        // FNV-1a over the bits of every output of `fft_in_place` and
        // `fft_real_into` at every length 2..=2099 and at 129 600 (the
        // `analyze` benchmark's length): a kernel rewrite that moves any
        // output by one ulp changes the digest. Each length gets a fresh
        // planner, so the cache never holds more than one chain.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |z: &Complex64| {
            for bits in [z.re.to_bits(), z.im.to_bits()] {
                hash = (hash ^ bits).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let (mut buf, mut real, mut out) = (Vec::new(), Vec::new(), Vec::new());
        for n in (2..=2099usize).chain([129_600]) {
            let mut p = FftPlanner::new();
            buf.clear();
            buf.extend(
                (0..n).map(|i| Complex64::new(digest_sample(i, n), digest_sample(i + n, n))),
            );
            p.fft_in_place(&mut buf);
            buf.iter().for_each(&mut eat);
            real.clear();
            real.extend((0..n).map(|i| digest_sample(i, n)));
            p.fft_real_into(&real, &mut out);
            out.iter().for_each(&mut eat);
        }
        assert_eq!(
            hash, 0x3aaa_971c_6f26_936a,
            "transform output digest moved: {hash:#018x}"
        );
    }

    #[test]
    fn mixed_plan_tables_stay_within_sixteen_bytes_per_point() {
        // n − 1 twiddles of 16 B, plus a radix list of at most log₂ n words.
        for n in [6usize, 360, 2880, 129_600] {
            let plan = MixedPlan::new(n, smooth_radices(n).unwrap());
            assert!(
                plan.table_bytes() <= 16 * n + 512,
                "n={n}: {} B",
                plan.table_bytes()
            );
        }
    }

    #[test]
    fn roots_match_direct_cis() {
        for n in [1usize, 2, 3, 4, 6, 8, 997, 1994, 2880, 64_800, 129_599] {
            let roots = Roots::new(n);
            // About 2√n direct evaluations, never one per root.
            let direct_calls = roots.lo.len() + roots.hi.len();
            assert!(
                direct_calls <= 3 * (n as f64).sqrt().ceil() as usize + 1,
                "n={n}"
            );
            for e in 0..n {
                let direct = Complex64::cis(-2.0 * PI * e as f64 / n as f64);
                let r = roots.root(e);
                assert!(
                    (r.re - direct.re).abs() <= 1e-14 && (r.im - direct.im).abs() <= 1e-14,
                    "n={n} e={e}: {r:?} vs {direct:?}"
                );
            }
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "compared with wall time")]
    fn table_build_time_counts_builds_once() {
        let mut p = FftPlanner::new();
        assert_eq!(p.table_build_time(), Duration::ZERO);
        let input = vec![1.0; 2880];
        let mut out = Vec::new();
        p.fft_real_into(&input, &mut out);
        let built = p.table_build_time();
        assert!(built > Duration::ZERO);
        // A cache hit builds nothing; a window table is another build.
        p.fft_real_into(&input, &mut out);
        assert_eq!(p.table_build_time(), built);
        let _window = p.window_table(Window::Hann, 2880);
        assert!(p.table_build_time() > built);

        // A build nested in a timed build is inside the outer clock: the
        // total never exceeds the outer call's wall time.
        let mut tables = PlanTables::default();
        let start = Instant::now();
        tables.timed(|t| t.timed(|_| std::thread::sleep(Duration::from_millis(5))));
        let wall = start.elapsed();
        assert!(tables.build_time >= Duration::from_millis(5));
        assert!(
            tables.build_time <= wall,
            "{:?} > {wall:?}",
            tables.build_time
        );
    }

    #[test]
    fn oversized_single_table_is_still_served() {
        let mut p = FftPlanner::new();
        p.set_table_budget(Some(1));
        let mut buf = vec![Complex64::ONE; 4096];
        p.fft_in_place(&mut buf); // must not loop forever or panic
        assert!((buf[0].re - 4096.0).abs() < 1e-6);
    }

    #[test]
    fn a_held_table_survives_a_drop_until_released() {
        let mut p = FftPlanner::new();
        let held = p.window_table(Window::Hann, 4096);
        p.window_table(Window::Hann, 1000);
        let held_bytes = held.resident_bytes();
        // Over budget, the cache drops what only it holds; the table a
        // caller holds stays cached and counted, and is served again.
        p.set_table_budget(Some(1));
        assert_eq!(p.table_bytes(), held_bytes);
        assert_eq!(p.tables.windows.len(), 1);
        assert!(Arc::ptr_eq(&held, &p.window_table(Window::Hann, 4096)));
        // Released, it goes with the next drop: the admission of the
        // newest plan, which alone stays.
        drop(held);
        assert_eq!(p.table_bytes(), held_bytes);
        let mut buf = vec![Complex64::ONE; 8];
        p.fft_in_place(&mut buf);
        assert!(p.tables.windows.is_empty());
        assert_eq!(p.table_bytes(), p.tables.complex[&8].table_bytes());
    }

    #[test]
    fn handle_stats_count_lookups_hits_and_misses() {
        let mut a = FftHandleStats::default();
        a.misses.inc();
        a.hits.inc();
        a.hits.inc();
        let mut b = FftHandleStats::default();
        b.misses.inc();
        assert_eq!(a.lookups(), 3);
        a.merge(&b);
        assert_eq!((a.lookups(), a.hits.get(), a.misses.get()), (4, 2, 2));
    }

    #[test]
    fn buffer_bytes_grow_once_and_exclude_tables() {
        let mut p = FftPlanner::new();
        assert_eq!((p.buffer_bytes(), p.table_bytes()), (0, 0));
        let mut out = Vec::new();
        p.fft_real_into(&[1.0; 202], &mut out); // packed over a Bluestein half
        let warm = p.buffer_bytes();
        assert!(warm >= 16 * 101, "{warm} B");
        p.fft_real_into(&[1.0; 202], &mut out);
        assert_eq!(p.buffer_bytes(), warm, "a repeat grows nothing");
        assert!(p.table_bytes() > 0);
    }
}
