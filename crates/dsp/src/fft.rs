//! Fast Fourier transforms.
//!
//! Three complex algorithms cover all input lengths, and a real-input path
//! sits on top of them:
//!
//! * **Iterative radix-2 Cooley–Tukey** (decimation in time, bit-reversed
//!   input ordering) for power-of-two lengths.
//! * **Mixed-radix Cooley–Tukey** (radices 4, 2, 3 and 5; self-sorting
//!   Stockham passes) for the other lengths with no prime factor above 5 —
//!   `2^a·3^b·5^c`, which is what real collection grids produce: 360
//!   one-minute samples in a 6-hour window, 2 880 half-minutes in a day,
//!   129 600 minutes in 90 days.
//! * **Bluestein's chirp-z algorithm** for everything else, which re-expresses
//!   an arbitrary-length DFT as a linear convolution evaluated with
//!   power-of-two FFTs of length `≥ 2N − 1`.
//! * A **packed real-input fast path** for even lengths: a length-`N` real
//!   transform is evaluated as one length-`N/2` complex FFT plus a
//!   conjugate-symmetric untangle pass — half the complex FFT work of the
//!   naive "promote to complex" route.
//!
//! [`FftPlanner`] caches twiddle tables, Bluestein chirps, real-transform
//! untangle twiddles and window-coefficient tables per length, so repeated
//! transforms of the same size (the common case when scanning a fleet of
//! equally-long traces) pay the setup cost once. The whole table cache lives
//! behind `Arc<Mutex<…>>`: a planner is `Send`, and [`FftPlanner::clone`]
//! shares **one mutable cache** between the clones, so a fleet of 10⁵
//! per-device analyzers on one worker holds every distinct plan once instead
//! of once per device — tables are pure data and never influence results,
//! only memory and setup time.
//!
//! By default the cache is unbounded — fine for workloads that revisit a
//! handful of lengths. Fleet-scale workloads that sweep *many* distinct
//! lengths (10⁵ adaptive controllers each polling at its own rate) can cap it
//! with [`FftPlanner::set_table_budget`]: the cache then evicts
//! least-recently-used tables once the cap is exceeded. Because tables are
//! pure functions of their length, eviction is invisible to results — a
//! re-requested length rebuilds the identical table and pays only setup time.
//!
//! A planner holds tables, never working buffers: every transform borrows
//! a caller-lent [`FftScratch`], and the `*_into` methods write into
//! caller-owned outputs. Once those buffers have warmed up, steady-state
//! transforms of previously seen lengths perform **no heap allocations** —
//! the property the PSD/Welch pipeline in [`crate::psd`] relies on.
//!
//! Conventions: the forward transform is **unnormalized**
//! (`X_k = Σ x_n e^{−2πi nk/N}`); the inverse scales by `1/N`, so
//! `ifft(fft(x)) == x`.

use crate::complex::Complex64;
use crate::window::{Window, WindowTable};
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex};

use sweetspot_obs::Counter;

/// Returns `true` if `n` is a power of two (and nonzero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `≥ n`. `next_pow2(0) == 1`.
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

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

/// Name of the algorithm a complex transform of length `n ≥ 2` runs:
/// `"radix2"` for powers of two, `"mixed"` for other lengths with no prime
/// factor above 5, `"bluestein"` for the rest. A real transform of even
/// length `n` runs the complex plan of `n/2`.
pub fn plan_kind(n: usize) -> &'static str {
    if is_pow2(n) {
        "radix2"
    } else if smooth_radices(n).is_some() {
        "mixed"
    } else {
        "bluestein"
    }
}

/// Reusable scratch space for the planner's transforms.
///
/// Callers lend one to every transform; a loop keeps one and passes it each
/// iteration. All buffers grow on demand and are reused across calls —
/// steady state allocates nothing. Contents never influence results.
#[derive(Debug, Default)]
pub struct FftScratch {
    /// Work buffer of the complex plans: the Bluestein convolution (length
    /// `next_pow2(2n − 1)`) or the mixed-radix ping-pong buffer (length
    /// `n`).
    conv: Vec<Complex64>,
    /// Packed half-length buffer for the real-input fast path.
    half: Vec<Complex64>,
    /// Full-length complex buffer for odd-length real transforms.
    full: Vec<Complex64>,
}

impl FftScratch {
    /// Creates empty scratch space; buffers grow on first use.
    pub fn new() -> Self {
        FftScratch::default()
    }

    /// Heap bytes the scratch currently holds (capacities, not lengths) —
    /// the per-worker memory-footprint accounting of the fleet engine.
    pub fn resident_bytes(&self) -> usize {
        (self.conv.capacity() + self.half.capacity() + self.full.capacity())
            * std::mem::size_of::<Complex64>()
    }
}

/// Allocates a table `Vec` whose capacity is `len` rounded up to a power
/// of two.
///
/// Plan tables live in a byte-budgeted cache that continuously evicts and
/// rebuilds as adaptive controllers sweep through stream lengths. Exact-size
/// allocations at ever-growing lengths defeat every allocator's free lists —
/// each new table is slightly larger than any freed hole, so process RSS
/// ratchets toward the *cumulative* churn instead of the budget. Capacities
/// quantized to power-of-two size classes make freed blocks exactly
/// reusable; `table_bytes`/`resident_bytes` charge capacity, so the budget
/// accounting stays honest about the rounding.
pub(crate) fn quantized_table<T>(len: usize) -> Vec<T> {
    Vec::with_capacity(len.next_power_of_two())
}

/// Precomputed tables for a power-of-two radix-2 transform.
struct Pow2Plan {
    len: usize,
    /// Forward twiddles: `twiddles[k] = e^{−2πi k / len}` for `k < len/2`.
    twiddles: Vec<Complex64>,
    /// Bit-reversal permutation for `len` points.
    rev: Vec<u32>,
}

impl Pow2Plan {
    fn new(len: usize) -> Self {
        debug_assert!(is_pow2(len));
        let half = len / 2;
        let twiddles = (0..half)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / len as f64))
            .collect();
        let bits = len.trailing_zeros();
        let rev = (0..len as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        // `bits == 0` (len == 1) never indexes `rev`, so the `max(1)` guard is
        // only there to avoid an invalid shift.
        Pow2Plan { len, twiddles, rev }
    }

    /// Heap bytes this plan's tables hold (capacities, not lengths).
    fn table_bytes(&self) -> usize {
        self.twiddles.capacity() * std::mem::size_of::<Complex64>()
            + self.rev.capacity() * std::mem::size_of::<u32>()
    }

    /// In-place forward (inverse = conjugate trick handled by caller).
    fn fft(&self, buf: &mut [Complex64]) {
        let n = self.len;
        debug_assert_eq!(buf.len(), n);
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Butterflies.
        let mut size = 2;
        while size <= n {
            let half = size / 2;
            let step = n / size;
            let mut base = 0;
            while base < n {
                for j in 0..half {
                    let w = self.twiddles[j * step];
                    let lo = buf[base + j];
                    let hi = buf[base + j + half] * w;
                    buf[base + j] = lo + hi;
                    buf[base + j + half] = lo - hi;
                }
                base += size;
            }
            size <<= 1;
        }
    }
}

/// Precomputed state for a Bluestein transform of arbitrary length `n`.
struct BluesteinPlan {
    n: usize,
    /// Convolution length (power of two `≥ 2n − 1`).
    m: usize,
    /// `chirp[k] = e^{−iπ k² / n}`, the pre/post-multiplier.
    chirp: Vec<Complex64>,
    /// FFT of the symmetric chirp kernel `b`, reused every call.
    kernel_fft: Vec<Complex64>,
    /// Power-of-two plan of length `m`.
    inner: Arc<Pow2Plan>,
}

impl BluesteinPlan {
    fn new(n: usize, inner: Arc<Pow2Plan>) -> Self {
        let m = inner.len;
        debug_assert!(m >= 2 * n - 1);
        // k² mod 2n keeps the chirp angle small and exact: e^{−iπ k²/n} has
        // period 2n in k².
        let two_n = 2 * n as u128;
        let mut chirp = quantized_table::<Complex64>(n);
        chirp.extend((0..n).map(|k| {
            let k2 = (k as u128 * k as u128) % two_n;
            Complex64::cis(-PI * k2 as f64 / n as f64)
        }));
        let mut kernel = vec![Complex64::ZERO; m];
        kernel[0] = chirp[0].conj();
        for k in 1..n {
            let b = chirp[k].conj();
            kernel[k] = b;
            kernel[m - k] = b;
        }
        inner.fft(&mut kernel);
        BluesteinPlan {
            n,
            m,
            chirp,
            kernel_fft: kernel,
            inner,
        }
    }

    /// Heap bytes this plan *pins*: its own chirp/kernel tables plus the
    /// inner power-of-two plan its `Arc` keeps alive.
    ///
    /// The inner plan usually also sits in the cache's pow2 map, so summing
    /// entries double-counts it — deliberately. Charging every entry its
    /// full pinned chain makes the budget counter an upper bound on actual
    /// heap: evicting an inner entry while an outer plan still references
    /// it releases no memory, and an own-bytes-only charge would let the
    /// cache pin several times its budget through such stale `Arc`s.
    fn table_bytes(&self) -> usize {
        (self.chirp.capacity() + self.kernel_fft.capacity())
            * std::mem::size_of::<Complex64>()
            + self.inner.table_bytes()
    }

    /// Forward transform; `conv` is the reusable convolution buffer.
    fn fft(&self, buf: &mut [Complex64], conv: &mut Vec<Complex64>) {
        debug_assert_eq!(buf.len(), self.n);
        conv.clear();
        conv.resize(self.m, Complex64::ZERO);
        for (k, slot) in conv.iter_mut().take(self.n).enumerate() {
            *slot = buf[k] * self.chirp[k];
        }
        self.inner.fft(conv);
        for (x, k) in conv.iter_mut().zip(&self.kernel_fft) {
            *x *= *k;
        }
        // Inverse FFT of length m via conjugation.
        for x in conv.iter_mut() {
            *x = x.conj();
        }
        self.inner.fft(conv);
        let scale = 1.0 / self.m as f64;
        for (k, out) in buf.iter_mut().enumerate() {
            *out = conv[k].conj().scale(scale) * self.chirp[k];
        }
    }
}

/// Radix passes of a mixed-radix plan for `n`, in the order they run —
/// 4s, then at most one 2, then 3s, then 5s — or `None` when `n` has a
/// prime factor above 5.
fn smooth_radices(mut n: usize) -> Option<Vec<usize>> {
    let mut radices = Vec::new();
    for p in [4, 2, 3, 5] {
        while n.is_multiple_of(p) {
            radices.push(p);
            n /= p;
        }
    }
    (n == 1).then_some(radices)
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
    radices: Vec<usize>,
    /// Every pass's twiddles, concatenated: the pass of radix `p` over
    /// sub-length `l = p·m` holds `e^{−2πi jt/l}` at `j·(p−1) + t − 1` for
    /// `j < m`, `1 ≤ t < p` — `n − 1` entries over all passes.
    twiddles: Vec<Complex64>,
}

impl MixedPlan {
    fn new(n: usize, radices: Vec<usize>) -> Self {
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut s = 1;
        for &p in &radices {
            let m = n / (s * p);
            for j in 0..m {
                // j·t·s < n, so every angle is an exact multiple of 2π/n.
                twiddles.extend(
                    (1..p).map(|t| Complex64::cis(-2.0 * PI * (j * t * s) as f64 / n as f64)),
                );
            }
            s *= p;
        }
        MixedPlan {
            n,
            radices,
            twiddles,
        }
    }

    /// Heap bytes this plan's tables hold (capacities, not lengths).
    fn table_bytes(&self) -> usize {
        self.twiddles.capacity() * std::mem::size_of::<Complex64>()
            + self.radices.capacity() * std::mem::size_of::<usize>()
    }

    /// In-place forward transform; `work` is the length-`n` ping-pong
    /// buffer.
    fn fft(&self, buf: &mut [Complex64], work: &mut Vec<Complex64>) {
        let n = self.n;
        debug_assert_eq!(buf.len(), n);
        if work.len() < n {
            work.resize(n, Complex64::ZERO);
        }
        let mut src: &mut [Complex64] = buf;
        let mut dst: &mut [Complex64] = &mut work[..n];
        let mut twiddles = &self.twiddles[..];
        let mut s = 1;
        for &p in &self.radices {
            let (tw, rest) = twiddles.split_at((p - 1) * (n / (s * p)));
            match p {
                2 => pass2(src, dst, s, tw),
                3 => pass3(src, dst, s, tw),
                4 => pass4(src, dst, s, tw),
                _ => pass5(src, dst, s, tw),
            }
            twiddles = rest;
            s *= p;
            std::mem::swap(&mut src, &mut dst);
        }
        // After an odd number of passes the result sits in `work`.
        if self.radices.len() % 2 == 1 {
            dst.copy_from_slice(src);
        }
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

fn pass2(src: &[Complex64], dst: &mut [Complex64], s: usize, tw: &[Complex64]) {
    let [x0, x1] = blocks::<2>(src);
    for (j, (out, w)) in dst.chunks_exact_mut(2 * s).zip(tw).enumerate() {
        let (x0, x1) = (&x0[s * j..][..s], &x1[s * j..][..s]);
        let (y0, y1) = out.split_at_mut(s);
        for q in 0..s {
            let (a0, a1) = (x0[q], x1[q]);
            y0[q] = a0 + a1;
            y1[q] = (a0 - a1) * *w;
        }
    }
}

fn pass3(src: &[Complex64], dst: &mut [Complex64], s: usize, tw: &[Complex64]) {
    let half_sqrt3 = 0.5 * 3f64.sqrt();
    let [x0, x1, x2] = blocks::<3>(src);
    for (j, (out, w)) in dst
        .chunks_exact_mut(3 * s)
        .zip(tw.chunks_exact(2))
        .enumerate()
    {
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

fn pass4(src: &[Complex64], dst: &mut [Complex64], s: usize, tw: &[Complex64]) {
    let [x0, x1, x2, x3] = blocks::<4>(src);
    for (j, (out, w)) in dst
        .chunks_exact_mut(4 * s)
        .zip(tw.chunks_exact(3))
        .enumerate()
    {
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

fn pass5(src: &[Complex64], dst: &mut [Complex64], s: usize, tw: &[Complex64]) {
    let (s1, c1) = (2.0 * PI / 5.0).sin_cos();
    let (s2, c2) = (4.0 * PI / 5.0).sin_cos();
    let [x0, x1, x2, x3, x4] = blocks::<5>(src);
    for (j, (out, w)) in dst
        .chunks_exact_mut(5 * s)
        .zip(tw.chunks_exact(4))
        .enumerate()
    {
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
    Pow2(Arc<Pow2Plan>),
    Mixed(Arc<MixedPlan>),
    Bluestein(Arc<BluesteinPlan>),
}

impl Plan {
    fn fft(&self, buf: &mut [Complex64], conv: &mut Vec<Complex64>) {
        match self {
            Plan::Pow2(p) => p.fft(buf),
            Plan::Mixed(p) => p.fft(buf, conv),
            Plan::Bluestein(p) => p.fft(buf, conv),
        }
    }

    /// Heap bytes the plan pins (own tables + inner chain; see
    /// [`BluesteinPlan::table_bytes`] for why pinned, not owned).
    fn table_bytes(&self) -> usize {
        match self {
            Plan::Pow2(p) => p.table_bytes(),
            Plan::Mixed(p) => p.table_bytes(),
            Plan::Bluestein(p) => p.table_bytes(),
        }
    }
}

/// Precomputed state for the packed real-input transform of even length `n`:
/// one length-`n/2` complex FFT plus a conjugate-symmetric untangle pass.
struct RealPlan {
    n: usize,
    /// Untangle twiddles `e^{−2πi k / n}` for `k ≤ n/2`.
    twiddles: Vec<Complex64>,
    /// Complex plan of length `n/2`.
    inner: Plan,
}

impl RealPlan {
    fn new(n: usize, inner: Plan) -> Self {
        debug_assert!(n >= 2 && n.is_multiple_of(2));
        let m = n / 2;
        let mut twiddles = quantized_table::<Complex64>(m + 1);
        twiddles.extend((0..=m).map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64)));
        RealPlan { n, twiddles, inner }
    }

    /// Heap bytes this plan pins: its untangle twiddles plus the inner
    /// half-length complex plan its handle keeps alive (see
    /// [`BluesteinPlan::table_bytes`] for why pinned, not owned — for a
    /// Bluestein inner the chain is ~7× the twiddles' own bytes, and
    /// charging own bytes only let the cache pin several budgets' worth of
    /// evicted-but-referenced inners).
    fn table_bytes(&self) -> usize {
        self.twiddles.capacity() * std::mem::size_of::<Complex64>()
            + self.inner.table_bytes()
    }

    /// Forward: one-sided spectrum (bins `0..=n/2`) of `input` into `out`.
    ///
    /// Packs adjacent real samples into `n/2` complex points, transforms
    /// them with the half-length plan, then untangles the interleaved even/
    /// odd sub-spectra: with `Fe`/`Fo` the DFTs of the even- and odd-indexed
    /// samples, `X[k] = Fe[k] + e^{−2πik/n}·Fo[k]`.
    fn fft(&self, input: &[f64], out: &mut Vec<Complex64>, scratch: &mut FftScratch) {
        let n = self.n;
        let m = n / 2;
        debug_assert_eq!(input.len(), n);
        let half = &mut scratch.half;
        half.clear();
        half.extend(input.chunks_exact(2).map(|p| Complex64::new(p[0], p[1])));
        self.inner.fft(half, &mut scratch.conv);
        let half = &scratch.half;
        out.clear();
        out.resize(m + 1, Complex64::ZERO);
        // k = 0 and k = m both untangle from Z[0] alone (Fe₀ = Re Z₀,
        // Fo₀ = Im Z₀; w[0] = 1, w[m] = −1).
        out[0] = Complex64::from_real(half[0].re + half[0].im);
        out[m] = Complex64::from_real(half[0].re - half[0].im);
        // Interior bins pair up: with t = w[k]·Fo[k],
        // X[k] = Fe[k] + t and X[m−k] = conj(Fe[k] − t), so one pass over
        // k ≤ m/2 settles both ends with a single twiddle multiply. At the
        // midpoint (even m) Fe is real and t imaginary, so both writes agree.
        for k in 1..=m / 2 {
            let zk = half[k];
            let zmk = half[m - k].conj();
            let fe = (zk + zmk).scale(0.5);
            let fo = (zk - zmk) * Complex64::new(0.0, -0.5);
            let t = self.twiddles[k] * fo;
            out[k] = fe + t;
            out[m - k] = (fe - t).conj();
        }
    }

    /// Inverse: the length-`n` real signal whose one-sided spectrum is
    /// `spectrum`, scaled by `1/n` so it exactly undoes [`RealPlan::fft`].
    fn ifft(&self, spectrum: &[Complex64], out: &mut Vec<f64>, scratch: &mut FftScratch) {
        let n = self.n;
        let m = n / 2;
        debug_assert_eq!(spectrum.len(), m + 1);
        let half = &mut scratch.half;
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
        self.inner.fft(half, &mut scratch.conv);
        let scale = 1.0 / m as f64;
        out.clear();
        out.reserve(n);
        for z in scratch.half.iter() {
            let z = z.conj().scale(scale);
            out.push(z.re);
            out.push(z.im);
        }
    }
}

/// Caching FFT planner — the per-thread spectral context.
///
/// Create once and reuse: tables are computed lazily per length and cached
/// behind [`Arc`]. The planner is `Send`, and [`Clone`] shares the cached
/// tables (cheap `Arc` bumps), so fleet-study workers can start from a
/// warmed planner. Working buffers are lent per call as an [`FftScratch`].
///
/// ```
/// use sweetspot_dsp::fft::{FftPlanner, FftScratch};
/// use sweetspot_dsp::Complex64;
///
/// let mut p = FftPlanner::new();
/// let mut scratch = FftScratch::new();
/// // Arbitrary (non-power-of-two) lengths are fine:
/// let mut buf = vec![Complex64::ONE; 12];
/// p.fft_in_place(&mut buf, &mut scratch);
/// assert!((buf[0].re - 12.0).abs() < 1e-9); // DC bin = Σ x_n
/// ```
pub struct FftPlanner {
    /// The shared, lazily grown table cache. One lock acquisition per plan
    /// lookup — uncontended in the per-worker usage pattern (clones that
    /// share a cache are stepped by one thread at a time), and a rounding
    /// error next to the transform it precedes.
    tables: Arc<Mutex<PlanTables>>,
    /// This handle's own lookup/hit/miss counts (see [`FftHandleStats`]).
    handle_stats: FftHandleStats,
    /// Sorted transform lengths this handle has requested, split by plan
    /// kind (a length-`n` complex plan and a length-`n` real plan are
    /// different tables). A handful of entries per handle in practice —
    /// settled controllers revisit the same lengths, so steady state never
    /// inserts (and never allocates).
    seen_complex: Vec<usize>,
    seen_real: Vec<usize>,
}

/// Plan-request statistics of one planner *handle* (one clone).
///
/// Counted at the handle, not the shared cache, deliberately: the shared
/// cache's hit pattern depends on which other clones share it — i.e. on the
/// worker-shard topology — while a handle's request sequence is a pure
/// function of the signal it analyzes. Summing handle stats over members in
/// device order therefore gives the same totals for any `--threads N`, which
/// is what lets them ride in the deterministic metrics snapshot. A "miss"
/// here means *first request of that length by this handle*, whether or not
/// the shared cache already held the table (warmed by a sibling) or has
/// since evicted it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FftHandleStats {
    /// Plan requests issued (one per transform of length ≥ 2).
    pub lookups: Counter,
    /// Requests for a length this handle had already requested.
    pub hits: Counter,
    /// First-time lengths (each implies table construction unless a sibling
    /// handle already built it).
    pub misses: Counter,
}

impl FftHandleStats {
    /// Folds another handle's counts into this one.
    pub fn merge(&mut self, other: &FftHandleStats) {
        self.lookups.merge(other.lookups);
        self.hits.merge(other.hits);
        self.misses.merge(other.misses);
    }
}

/// One cached table plus the bookkeeping the byte-budgeted cache needs:
/// its heap footprint (computed once at build) and a last-use stamp for
/// least-recently-used eviction.
struct Cached<T> {
    plan: Arc<T>,
    bytes: usize,
    last_used: u64,
}

/// Which cache map an eviction victim lives in.
enum Victim {
    Pow2(usize),
    Mixed(usize),
    Bluestein(usize),
    Real(usize),
    Window(Window, usize),
}

/// Every cached table, grouped so one lock guards them all.
///
/// With `budget: Some(bytes)` the cache evicts least-recently-used tables
/// whenever `resident` exceeds the budget; nested tables (a Bluestein plan's
/// inner power-of-two plan, a real plan's half-length complex plan) are
/// accounted at their own cache entry, and an evicted entry that is still
/// referenced through such a nesting simply stays alive behind its `Arc`
/// until the referencing plan is evicted too.
#[derive(Default)]
struct PlanTables {
    pow2: HashMap<usize, Cached<Pow2Plan>>,
    mixed: HashMap<usize, Cached<MixedPlan>>,
    bluestein: HashMap<usize, Cached<BluesteinPlan>>,
    real: HashMap<usize, Cached<RealPlan>>,
    windows: HashMap<(Window, usize), Cached<WindowTable>>,
    /// Byte cap on `resident`; `None` (the default) means unbounded.
    budget: Option<usize>,
    /// Monotonic access counter; every lookup stamps its entry so eviction
    /// can pick the least-recently-used victim.
    tick: u64,
    /// Sum of the `bytes` of every entry currently held.
    resident: usize,
}

impl PlanTables {
    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn pow2_plan(&mut self, len: usize) -> Arc<Pow2Plan> {
        let tick = self.stamp();
        if let Some(e) = self.pow2.get_mut(&len) {
            e.last_used = tick;
            return e.plan.clone();
        }
        let plan = Arc::new(Pow2Plan::new(len));
        let bytes = plan.table_bytes();
        self.resident += bytes;
        self.pow2.insert(len, Cached { plan: plan.clone(), bytes, last_used: tick });
        self.enforce_budget();
        plan
    }

    /// The complex plan for `len`: radix-2 for powers of two, mixed-radix
    /// for other lengths with no prime factor above 5, Bluestein for the
    /// rest. Both caches are consulted before the length is factored, so a
    /// hit never allocates.
    fn plan(&mut self, len: usize) -> Plan {
        if is_pow2(len) {
            return Plan::Pow2(self.pow2_plan(len));
        }
        let tick = self.stamp();
        if let Some(e) = self.mixed.get_mut(&len) {
            e.last_used = tick;
            return Plan::Mixed(e.plan.clone());
        }
        if let Some(e) = self.bluestein.get_mut(&len) {
            e.last_used = tick;
            return Plan::Bluestein(e.plan.clone());
        }
        if let Some(radices) = smooth_radices(len) {
            let plan = Arc::new(MixedPlan::new(len, radices));
            let bytes = plan.table_bytes();
            self.resident += bytes;
            self.mixed.insert(len, Cached { plan: plan.clone(), bytes, last_used: tick });
            self.enforce_budget();
            return Plan::Mixed(plan);
        }
        let m = next_pow2(2 * len - 1);
        let inner = self.pow2_plan(m);
        let plan = Arc::new(BluesteinPlan::new(len, inner));
        let bytes = plan.table_bytes();
        self.resident += bytes;
        let tick = self.stamp();
        self.bluestein.insert(len, Cached { plan: plan.clone(), bytes, last_used: tick });
        self.enforce_budget();
        Plan::Bluestein(plan)
    }

    fn real_plan(&mut self, n: usize) -> Arc<RealPlan> {
        debug_assert!(n >= 2 && n.is_multiple_of(2));
        let tick = self.stamp();
        if let Some(e) = self.real.get_mut(&n) {
            e.last_used = tick;
            return e.plan.clone();
        }
        let inner = self.plan(n / 2);
        let plan = Arc::new(RealPlan::new(n, inner));
        let bytes = plan.table_bytes();
        self.resident += bytes;
        let tick = self.stamp();
        self.real.insert(n, Cached { plan: plan.clone(), bytes, last_used: tick });
        self.enforce_budget();
        plan
    }

    fn window_table(&mut self, window: Window, n: usize) -> Arc<WindowTable> {
        let tick = self.stamp();
        if let Some(e) = self.windows.get_mut(&(window, n)) {
            e.last_used = tick;
            return e.plan.clone();
        }
        let plan = Arc::new(WindowTable::new(window, n));
        let bytes = plan.resident_bytes();
        self.resident += bytes;
        self.windows.insert((window, n), Cached { plan: plan.clone(), bytes, last_used: tick });
        self.enforce_budget();
        plan
    }

    /// Evicts least-recently-used entries until `resident` fits the budget.
    ///
    /// The entry stamped at the current `tick` — the one the caller is about
    /// to hand out — is never the victim, so a single table larger than the
    /// whole budget still gets built and returned (the cache just holds
    /// nothing else alongside it).
    fn enforce_budget(&mut self) {
        let Some(budget) = self.budget else { return };
        while self.resident > budget {
            let newest = self.tick;
            let mut victim: Option<(Victim, u64)> = None;
            let mut consider = |cand: Victim, last_used: u64| {
                if last_used != newest
                    && victim.as_ref().is_none_or(|(_, lu)| last_used < *lu)
                {
                    victim = Some((cand, last_used));
                }
            };
            for (&k, e) in &self.pow2 {
                consider(Victim::Pow2(k), e.last_used);
            }
            for (&k, e) in &self.mixed {
                consider(Victim::Mixed(k), e.last_used);
            }
            for (&k, e) in &self.bluestein {
                consider(Victim::Bluestein(k), e.last_used);
            }
            for (&k, e) in &self.real {
                consider(Victim::Real(k), e.last_used);
            }
            for (&(w, n), e) in &self.windows {
                consider(Victim::Window(w, n), e.last_used);
            }
            let Some((key, _)) = victim else { return };
            let bytes = match key {
                Victim::Pow2(k) => self.pow2.remove(&k).map(|e| e.bytes),
                Victim::Mixed(k) => self.mixed.remove(&k).map(|e| e.bytes),
                Victim::Bluestein(k) => self.bluestein.remove(&k).map(|e| e.bytes),
                Victim::Real(k) => self.real.remove(&k).map(|e| e.bytes),
                Victim::Window(w, n) => self.windows.remove(&(w, n)).map(|e| e.bytes),
            };
            self.resident -= bytes.unwrap_or(0);
        }
    }
}

impl Default for FftPlanner {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for FftPlanner {
    /// Shares the table cache — past *and future* plans — with the clone;
    /// the clone gets fresh handle statistics (a clone's request history is
    /// its own). A fleet of per-device analyzers built from clones of one
    /// planner therefore holds every distinct plan exactly once.
    fn clone(&self) -> Self {
        FftPlanner {
            tables: Arc::clone(&self.tables),
            handle_stats: FftHandleStats::default(),
            seen_complex: Vec::new(),
            seen_real: Vec::new(),
        }
    }
}

impl FftPlanner {
    /// Creates an empty planner (with its own fresh table cache — use
    /// [`Clone`] to share a cache).
    pub fn new() -> Self {
        FftPlanner {
            tables: Arc::new(Mutex::new(PlanTables::default())),
            handle_stats: FftHandleStats::default(),
            seen_complex: Vec::new(),
            seen_real: Vec::new(),
        }
    }

    /// Counts one plan request against this handle: a hit when `len` was
    /// requested before (by this handle), a first-sight miss otherwise.
    fn note_lookup(stats: &mut FftHandleStats, seen: &mut Vec<usize>, len: usize) {
        stats.lookups.inc();
        match seen.binary_search(&len) {
            Ok(_) => stats.hits.inc(),
            Err(i) => {
                stats.misses.inc();
                seen.insert(i, len);
            }
        }
    }

    fn plan(&mut self, len: usize) -> Plan {
        Self::note_lookup(&mut self.handle_stats, &mut self.seen_complex, len);
        self.tables.lock().expect("fft plan cache poisoned").plan(len)
    }

    fn real_plan(&mut self, n: usize) -> Arc<RealPlan> {
        Self::note_lookup(&mut self.handle_stats, &mut self.seen_real, n);
        self.tables
            .lock()
            .expect("fft plan cache poisoned")
            .real_plan(n)
    }

    /// This handle's own plan-request counts (lookups/hits/misses). See
    /// [`FftHandleStats`] for why these are per-clone, not per-cache.
    pub fn handle_stats(&self) -> FftHandleStats {
        self.handle_stats
    }

    /// The cached coefficient table for `window` at length `n`.
    ///
    /// Built once per `(window, n)`; spectral estimators multiply by the
    /// table instead of re-evaluating trig per sample per segment.
    pub fn window_table(&mut self, window: Window, n: usize) -> Arc<WindowTable> {
        self.tables
            .lock()
            .expect("fft plan cache poisoned")
            .window_table(window, n)
    }

    /// Caps the shared table cache at `budget` bytes (`None` removes the
    /// cap, the default). Once over budget the cache evicts
    /// least-recently-used tables; tables are pure functions of their
    /// length, so eviction never changes any result — a re-requested length
    /// rebuilds the identical table and pays only setup time. The cap
    /// applies to every clone sharing this cache.
    pub fn set_table_budget(&self, budget: Option<usize>) {
        let mut tables = self.tables.lock().expect("fft plan cache poisoned");
        tables.budget = budget;
        tables.enforce_budget();
    }

    /// Heap bytes the shared table cache currently holds.
    pub fn table_bytes(&self) -> usize {
        self.tables.lock().expect("fft plan cache poisoned").resident
    }

    /// Forward DFT, in place, unnormalized. Any length (including 0 and 1,
    /// which are no-ops).
    pub fn fft_in_place(&mut self, buf: &mut [Complex64], scratch: &mut FftScratch) {
        let n = buf.len();
        if n <= 1 {
            return;
        }
        let plan = self.plan(n);
        plan.fft(buf, &mut scratch.conv);
    }

    /// Inverse DFT, in place, scaled by `1/N` so it exactly undoes
    /// [`fft_in_place`](FftPlanner::fft_in_place).
    pub fn ifft_in_place(&mut self, buf: &mut [Complex64], scratch: &mut FftScratch) {
        let n = buf.len();
        if n <= 1 {
            return;
        }
        for x in buf.iter_mut() {
            *x = x.conj();
        }
        self.fft_in_place(buf, scratch);
        let scale = 1.0 / n as f64;
        for x in buf.iter_mut() {
            *x = x.conj().scale(scale);
        }
    }

    /// Forward DFT of a real signal into `out` as a **one-sided** spectrum:
    /// bins `0..=n/2` ([`one_sided_len`] entries; the mirror half is implied
    /// by conjugate symmetry). Steady state allocates nothing once `out` and
    /// `scratch` have capacity.
    ///
    /// Even lengths take the packed fast path (one `n/2` complex FFT); odd
    /// lengths fall back to a full complex transform internally.
    pub fn fft_real_into(
        &mut self,
        input: &[f64],
        out: &mut Vec<Complex64>,
        scratch: &mut FftScratch,
    ) {
        let n = input.len();
        out.clear();
        match n {
            0 => {}
            1 => out.push(Complex64::from_real(input[0])),
            _ if n.is_multiple_of(2) => {
                let plan = self.real_plan(n);
                plan.fft(input, out, scratch);
            }
            _ => {
                // Odd length: full complex transform, keep the first half.
                let plan = self.plan(n);
                scratch.full.clear();
                scratch
                    .full
                    .extend(input.iter().map(|&x| Complex64::from_real(x)));
                plan.fft(&mut scratch.full, &mut scratch.conv);
                out.extend_from_slice(&scratch.full[..one_sided_len(n)]);
            }
        }
    }

    /// Inverse of [`fft_real_into`](FftPlanner::fft_real_into): reconstructs
    /// the length-`n` real signal from its one-sided `spectrum`
    /// ([`one_sided_len`]`(n)` bins), scaled by `1/n`.
    ///
    /// # Panics
    /// Panics if `spectrum.len() != one_sided_len(n)`.
    pub fn ifft_real_into(
        &mut self,
        spectrum: &[Complex64],
        n: usize,
        out: &mut Vec<f64>,
        scratch: &mut FftScratch,
    ) {
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
                let plan = self.real_plan(n);
                plan.ifft(spectrum, out, scratch);
            }
            _ => {
                // Odd length: expand to the full spectrum by conjugate
                // symmetry, then a complex inverse transform.
                let plan = self.plan(n);
                scratch.full.clear();
                scratch.full.reserve(n);
                scratch.full.extend_from_slice(spectrum);
                for k in (1..=(n - 1) / 2).rev() {
                    let c = spectrum[k].conj();
                    scratch.full.push(c);
                }
                for z in scratch.full.iter_mut() {
                    *z = z.conj();
                }
                plan.fft(&mut scratch.full, &mut scratch.conv);
                let scale = 1.0 / n as f64;
                out.extend(scratch.full.iter().map(|z| z.re * scale));
            }
        }
    }

    /// Forward DFT of a real signal; returns all `N` complex bins.
    ///
    /// Allocating convenience wrapper with throwaway scratch: even lengths
    /// run the packed fast path and mirror the one-sided half; prefer
    /// [`fft_real_into`](FftPlanner::fft_real_into) in steady-state loops.
    pub fn fft_real(&mut self, input: &[f64]) -> Vec<Complex64> {
        let n = input.len();
        let mut scratch = FftScratch::new();
        if n >= 2 && n.is_multiple_of(2) {
            let mut out = Vec::with_capacity(n);
            self.fft_real_into(input, &mut out, &mut scratch);
            for j in n / 2 + 1..n {
                let c = out[n - j].conj();
                out.push(c);
            }
            out
        } else {
            let mut buf: Vec<Complex64> = input.iter().map(|&x| Complex64::from_real(x)).collect();
            self.fft_in_place(&mut buf, &mut scratch);
            buf
        }
    }
}

/// Reference `O(N²)` DFT used to validate the fast paths in tests and to
/// cross-check odd lengths in benches. Forward, unnormalized.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|t| input[t] * Complex64::cis(-2.0 * PI * (t * k % n.max(1)) as f64 / n as f64))
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

    fn impulse(n: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; n];
        v[0] = Complex64::ONE;
        v
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        for n in [2usize, 4, 8, 64, 3, 5, 12, 100] {
            let mut buf = impulse(n);
            p.fft_in_place(&mut buf, &mut scratch);
            for b in &buf {
                assert!((b.re - 1.0).abs() < 1e-9 && b.im.abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn matches_naive_dft_pow2() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        let input: Vec<Complex64> = (0..16)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let expected = dft_naive(&input);
        let mut buf = input;
        p.fft_in_place(&mut buf, &mut scratch);
        assert_close(&buf, &expected, 1e-9);
    }

    #[test]
    fn matches_naive_dft_arbitrary_lengths() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        for n in [3usize, 5, 6, 7, 9, 11, 15, 17, 31, 50, 101] {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let expected = dft_naive(&input);
            let mut buf = input;
            p.fft_in_place(&mut buf, &mut scratch);
            assert_close(&buf, &expected, 1e-8);
        }
    }

    #[test]
    fn roundtrip_identity() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        for n in [1usize, 2, 8, 13, 64, 100, 257] {
            let orig: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
                .collect();
            let mut buf = orig.clone();
            p.fft_in_place(&mut buf, &mut scratch);
            p.ifft_in_place(&mut buf, &mut scratch);
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
        let spec = p.fft_real(&input);
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
        let n = 90; // even but non-pow2: packed rfft over a mixed-radix half
        let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin() + 0.3).collect();
        let spec = p.fft_real(&input);
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
        }
    }

    #[test]
    fn rfft_one_sided_matches_full_complex_fft() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        // Even pow2, mixed-radix-half and Bluestein-half, odd, and tiny
        // lengths.
        for n in [2usize, 4, 8, 64, 256, 6, 10, 12, 90, 100, 1000, 14, 202, 3, 7, 45, 101] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.731).sin() + 0.2).collect();
            let mut one_sided = Vec::new();
            p.fft_real_into(&input, &mut one_sided, &mut scratch);
            assert_eq!(one_sided.len(), one_sided_len(n));
            let mut full: Vec<Complex64> =
                input.iter().map(|&x| Complex64::from_real(x)).collect();
            p.fft_in_place(&mut full, &mut scratch);
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
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        for n in [1usize, 2, 4, 12, 64, 90, 100, 3, 7, 101, 255] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.413).cos() - 0.7).collect();
            let mut spec = Vec::new();
            p.fft_real_into(&input, &mut spec, &mut scratch);
            let mut back = Vec::new();
            p.ifft_real_into(&spec, n, &mut back, &mut scratch);
            assert_eq!(back.len(), n);
            for (a, b) in input.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fft_real_full_matches_one_sided_mirror() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        for n in [8usize, 90, 101] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).sin()).collect();
            let full = p.fft_real(&input);
            let mut one_sided = Vec::new();
            p.fft_real_into(&input, &mut one_sided, &mut scratch);
            for (k, c) in one_sided.iter().enumerate() {
                assert!((full[k] - *c).norm() < 1e-9 * n as f64, "n={n} bin {k}");
            }
        }
    }

    #[test]
    fn planner_is_send_and_clone_shares_tables() {
        fn assert_send<T: Send>() {}
        assert_send::<FftPlanner>();

        let mut warm = FftPlanner::new();
        let sig: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let mut expected = Vec::new();
        warm.fft_real_into(&sig, &mut expected, &mut FftScratch::new());

        let mut moved = warm.clone();
        let from_thread = std::thread::spawn(move || {
            let mut out = Vec::new();
            moved.fft_real_into(&sig, &mut out, &mut FftScratch::new());
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
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        for n in [32usize, 77] {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.9).sin(), 0.1 * i as f64))
                .collect();
            let time_energy: f64 = input.iter().map(|c| c.norm_sqr()).sum();
            let mut buf = input;
            p.fft_in_place(&mut buf, &mut scratch);
            let freq_energy: f64 = buf.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
            assert!(
                (time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0),
                "n={n}"
            );
        }
    }

    #[test]
    fn linearity() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        let n = 24;
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (i as f64).cos()))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y.scale(2.0)).collect();

        let mut fa = a.clone();
        p.fft_in_place(&mut fa, &mut scratch);
        let mut fb = b.clone();
        p.fft_in_place(&mut fb, &mut scratch);
        let mut fsum = sum;
        p.fft_in_place(&mut fsum, &mut scratch);
        let expected: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| x + y.scale(2.0)).collect();
        assert_close(&fsum, &expected, 1e-8);
    }

    #[test]
    fn zero_and_one_point_are_noops() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        let mut empty: Vec<Complex64> = vec![];
        p.fft_in_place(&mut empty, &mut scratch);
        let mut one = vec![Complex64::new(3.0, -1.0)];
        p.fft_in_place(&mut one, &mut scratch);
        assert_eq!(one[0], Complex64::new(3.0, -1.0));
        p.ifft_in_place(&mut one, &mut scratch);
        assert_eq!(one[0], Complex64::new(3.0, -1.0));

        let mut out = Vec::new();
        p.fft_real_into(&[], &mut out, &mut scratch);
        assert!(out.is_empty());
        p.fft_real_into(&[2.5], &mut out, &mut scratch);
        assert_eq!(out, vec![Complex64::from_real(2.5)]);
        let mut back = Vec::new();
        p.ifft_real_into(&out, 1, &mut back, &mut scratch);
        assert_eq!(back, vec![2.5]);
    }

    #[test]
    fn planner_reuse_is_consistent() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        let input: Vec<Complex64> = (0..48).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let mut first = input.clone();
        p.fft_in_place(&mut first, &mut scratch);
        let mut second = input;
        p.fft_in_place(&mut second, &mut scratch);
        assert_close(&first, &second, 0.0);
    }

    #[test]
    fn pow2_helpers() {
        assert!(is_pow2(1) && is_pow2(2) && is_pow2(1024));
        assert!(!is_pow2(0) && !is_pow2(3) && !is_pow2(12));
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(16), 16);
        assert_eq!(one_sided_len(0), 0);
        assert_eq!(one_sided_len(1), 1);
        assert_eq!(one_sided_len(8), 5);
        assert_eq!(one_sided_len(9), 5);
    }

    #[test]
    #[should_panic(expected = "one-sided spectrum")]
    fn ifft_real_into_rejects_wrong_bin_count() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        let mut out = Vec::new();
        p.ifft_real_into(&[Complex64::ONE; 4], 8, &mut out, &mut scratch);
    }

    #[test]
    fn table_budget_bounds_the_cache() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        let mut buf = Vec::new();
        let mut sweep = |p: &mut FftPlanner, lengths: &[usize]| {
            for &n in lengths {
                buf.clear();
                buf.resize(n, Complex64::ONE);
                p.fft_in_place(&mut buf, &mut scratch);
            }
        };
        // Sweep many distinct non-power-of-two lengths: unbounded, the
        // cache grows with every one, mixed-radix plans included.
        let smooth = [
            150usize, 180, 240, 270, 300, 360, 375, 400, 450, 480, 500, 540,
        ];
        sweep(&mut p, &smooth);
        let mixed_only = p.table_bytes();
        assert!(
            mixed_only >= 8 * smooth.iter().sum::<usize>(),
            "{mixed_only} B"
        );
        let bluestein: Vec<usize> = (101..151).step_by(2).collect();
        sweep(&mut p, &bluestein);
        let unbounded = p.table_bytes();
        assert!(
            unbounded > 100_000,
            "expected a grown cache, got {unbounded} B"
        );

        // Capping evicts down to the budget immediately...
        let budget = unbounded / 8;
        p.set_table_budget(Some(budget));
        assert!(p.table_bytes() <= budget, "{} > {budget}", p.table_bytes());
        // ...and the cap holds across further sweeps of fresh lengths of
        // both kinds.
        let fresh: Vec<usize> = (201..251)
            .step_by(2)
            .chain((600..3000).step_by(120))
            .collect();
        sweep(&mut p, &fresh);
        assert!(p.table_bytes() <= budget, "{} > {budget}", p.table_bytes());
        assert!(
            !p.tables.lock().unwrap().mixed.is_empty(),
            "the sweep ends on mixed plans"
        );
    }

    #[test]
    fn eviction_and_rebuild_is_bit_identical() {
        // Same input, three regimes: unbounded cache, a cache so small every
        // plan is rebuilt from scratch, and a rebuilt-after-eviction plan.
        // Tables are pure functions of length, so all spectra must match
        // bit for bit — over a mixed-radix half (300 = 2·150) and a
        // Bluestein half (202 = 2·101), churned by plans of both kinds.
        let mut scratch = FftScratch::new();
        let mut tiny = FftPlanner::new();
        tiny.set_table_budget(Some(1));
        for n in [300usize, 202] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut reference = Vec::new();
            FftPlanner::new().fft_real_into(&input, &mut reference, &mut scratch);
            let mut out = Vec::new();
            for _ in 0..3 {
                // Alternate lengths so each request misses and rebuilds.
                for churn_len in [77, 75] {
                    let mut churn = vec![Complex64::ONE; churn_len];
                    tiny.fft_in_place(&mut churn, &mut scratch);
                }
                tiny.fft_real_into(&input, &mut out, &mut scratch);
                assert_eq!(out.len(), reference.len());
                for (a, b) in out.iter().zip(&reference) {
                    assert!(a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
                }
            }
        }
        // A one-byte budget keeps at most the in-flight plan chain: the
        // length-202 real plan pins its quantized twiddles plus the inner
        // Bluestein(101) chirp/kernel and pow2(256) tables — ~11 kB deep.
        assert!(tiny.table_bytes() <= 32 * 1024, "{}", tiny.table_bytes());
    }

    #[test]
    fn every_smooth_length_up_to_512_matches_naive_dft() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        for n in (2..=512).filter(|&n| !is_pow2(n) && smooth_radices(n).is_some()) {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() - 0.4))
                .collect();
            let expected = dft_naive(&input);
            let mut buf = input;
            p.fft_in_place(&mut buf, &mut scratch);
            let peak = expected.iter().map(|c| c.norm()).fold(0.0, f64::max);
            for (k, (x, y)) in buf.iter().zip(&expected).enumerate() {
                assert!(
                    (*x - *y).norm() <= 1e-9 * peak,
                    "n={n} bin {k}: {x:?} vs {y:?}"
                );
            }
            assert!(p.tables.lock().unwrap().mixed.contains_key(&n), "n={n}");
            assert_eq!(plan_kind(n), "mixed");
        }
        assert_eq!(plan_kind(512), "radix2");
        assert_eq!(plan_kind(2878), "bluestein");
        assert!(p.tables.lock().unwrap().bluestein.is_empty());
    }

    #[test]
    fn smooth_real_lengths_build_no_bluestein_plan() {
        // A tracker window (6 h at 1 min), a day at 30 s and 90 days at
        // 1 min: real transforms over mixed-radix halves, with no Bluestein
        // chain anywhere in the cache.
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        let mut out = Vec::new();
        for n in [360usize, 2880, 129_600] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
            p.fft_real_into(&input, &mut out, &mut scratch);
            assert!(
                p.tables.lock().unwrap().mixed.contains_key(&(n / 2)),
                "n={n}"
            );
        }
        let tables = p.tables.lock().unwrap();
        assert!(
            tables.bluestein.is_empty(),
            "{:?}",
            tables.bluestein.keys().collect::<Vec<_>>()
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
    fn oversized_single_table_is_still_served() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        p.set_table_budget(Some(1));
        let mut buf = vec![Complex64::ONE; 4096];
        p.fft_in_place(&mut buf, &mut scratch); // must not loop forever or panic
        assert!((buf[0].re - 4096.0).abs() < 1e-6);
    }

    #[test]
    fn handle_stats_count_lookups_hits_and_misses() {
        let mut scratch = FftScratch::new();
        let mut p = FftPlanner::new();
        let mut buf = vec![Complex64::ONE; 64];
        p.fft_in_place(&mut buf, &mut scratch); // miss (complex 64)
        p.fft_in_place(&mut buf, &mut scratch); // hit
        let input = vec![1.0f64; 64];
        let mut out = Vec::new();
        p.fft_real_into(&input, &mut out, &mut scratch); // miss (real 64 ≠ complex 64)
        p.fft_real_into(&input, &mut out, &mut scratch); // hit

        let s = p.handle_stats();
        assert_eq!(s.lookups.get(), 4);
        assert_eq!(s.hits.get(), 2);
        assert_eq!(s.misses.get(), 2);
        assert_eq!(s.lookups.get(), s.hits.get() + s.misses.get());

        // A clone shares tables but starts its own request history: its
        // first length-64 transform is a handle-level miss even though the
        // shared cache is warm.
        let mut clone = p.clone();
        let mut buf2 = vec![Complex64::ONE; 64];
        clone.fft_in_place(&mut buf2, &mut scratch);
        assert_eq!(clone.handle_stats().lookups.get(), 1);
        assert_eq!(clone.handle_stats().misses.get(), 1);
        assert_eq!(p.handle_stats().lookups.get(), 4, "parent unchanged");

        let mut merged = p.handle_stats();
        merged.merge(&clone.handle_stats());
        assert_eq!(merged.lookups.get(), 5);
        assert_eq!(merged.hits.get() + merged.misses.get(), 5);
    }
}
