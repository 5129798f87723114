"""On-demand C library for the location phase (built via ``ctypes``).

It has two entry points, both **bit-identical** to pure-numpy code
that stays in the repo as the fallback and the test reference.

:func:`accumulate_exposures` — the ``"compiled"`` exposure kernel —
replaces the pair-materialising part of the ``"flat"`` kernel
(segmented S×I enumeration, per-pair hazard evaluation,
per-(location, person) hazard/bincount reduction and the
earliest-minute ``minimum.at``) with one streaming C loop that never
allocates a per-pair array.  Everything around it (the candidate
filter, the ``(location, sublocation)`` lexsort, the infection draw)
stays in numpy:

* integer overlap arithmetic and IEEE-754 double multiply/add are
  exactly specified, and the C loop performs them in precisely the
  order ``np.bincount`` accumulates the sorted pair array (ascending
  susceptible row, block order within a row);
* every transcendental stays in numpy — the per-pair
  ``-log1p(-rate)`` factor only depends on the (infectious state,
  susceptible state) pair, so it is precomputed as an
  ``n_states × n_states`` table with the *same*
  :meth:`~repro.core.transmission.TransmissionModel.hazard` call the
  flat kernel makes, and ``probability``/``keyed_uniforms`` run on the
  reduced per-person arrays exactly as before.

:func:`keyed_words` — behind every batched keyed draw
(:func:`repro.util.rng.keyed_words`: the location draw, the batched
person and apply phases, ``uniforms_for``) — fuses, per key row,
BLAKE2b-64 of ``root‖keys`` (one block, so at most
:data:`MAX_KEY_COLUMNS` keys), numpy's
``SeedSequence(seed).generate_state(4, uint64)`` and the PCG64
seeding plus first ``next_uint64`` words.  The fallback is
``hashlib`` per row (:func:`repro.util.rng.derive_seeds`) plus the
numpy replay in :mod:`repro.util.pcg`.

The shared library is compiled once per source hash with the system C
compiler (``$CC``, else ``cc``/``gcc``/``clang``) into a cache
directory, loaded on first use (never at import) and memoised per
process; forked SMP workers inherit the mapping.
``-ffp-contract=off`` keeps the compiler from fusing the multiply-add
into an FMA that would change the bits.

No toolchain (or ``REPRO_NO_CKERNEL=1``) simply means
:func:`available` is ``False``: ``kernel=None`` resolves to
``"flat"``, keyed draws take the hashlib + numpy path, and tests skip
cleanly — nothing in the repo *requires* a compiler.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.util.rng import check_seed

__all__ = [
    "available",
    "build_error",
    "accumulate_exposures",
    "keyed_words",
    "cache_dir",
]

C_SOURCE = r"""
#include <stdint.h>

/* Accumulate S x I exposure hazards, streaming, without materialising
 * pairs.  Rows are the day's candidate visits (every one susceptible
 * or infectious at an active location).  Susceptible rows are walked
 * in ascending row order and their infectious partners in sorted
 * (location, sublocation)-block order -- the exact accumulation
 * sequence of the flat kernel's sort-by-susceptible + bincount, so
 * the double sums match bit for bit.
 *
 * Returns the number of interacting pairs (positive overlap). */
int64_t repro_accumulate_exposures(
    int64_t n_rows,
    const int64_t *vstart,        /* per candidate row: visit start   */
    const int64_t *vend,          /* per candidate row: visit end     */
    const int64_t *state,         /* per candidate row: health state  */
    const uint8_t *sus,           /* per candidate row: susceptible?  */
    const int64_t *slot,          /* per candidate row: (loc, person)
                                     accumulator index                */
    const int64_t *row_block,     /* per candidate row: (loc, subloc)
                                     block id                         */
    const int64_t *inf_rows,      /* infectious candidate rows, in
                                     sorted-position order            */
    const int64_t *inf_off,       /* per block: [start, end) into
                                     inf_rows (n_blocks + 1 entries)  */
    const double *haz_table,      /* [inf_state * n_states + sus_state]
                                     = hazard per overlap minute      */
    int64_t n_states,
    double *total_hazard,         /* out, per slot: summed hazard     */
    int64_t *first_minute,        /* out, per slot: min overlap end
                                     (init to INT64_MAX)              */
    int64_t *pair_count)          /* out, per slot: interacting pairs */
{
    int64_t pairs = 0;
    for (int64_t r = 0; r < n_rows; ++r) {
        if (!sus[r]) continue;
        const int64_t b = row_block[r];
        const int64_t k0 = inf_off[b], k1 = inf_off[b + 1];
        if (k0 == k1) continue;
        const int64_t s0 = vstart[r], e0 = vend[r];
        const int64_t sl = slot[r];
        const double *tab = haz_table + state[r];  /* column of sus state */
        double acc = total_hazard[sl];
        int64_t fmin = first_minute[sl];
        int64_t hits = 0;
        for (int64_t k = k0; k < k1; ++k) {
            const int64_t ri = inf_rows[k];
            if (ri == r) continue;                 /* no self pairing */
            const int64_t os = s0 > vstart[ri] ? s0 : vstart[ri];
            const int64_t oe = e0 < vend[ri] ? e0 : vend[ri];
            if (oe <= os) continue;
            acc += (double)(oe - os) * tab[state[ri] * n_states];
            if (oe < fmin) fmin = oe;
            ++hits;
        }
        total_hazard[sl] = acc;
        first_minute[sl] = fmin;
        pair_count[sl] += hits;
        pairs += hits;
    }
    return pairs;
}

/* ---- keyed words: BLAKE2b -> SeedSequence -> PCG64, fused ---------- */

static const uint64_t B2B_IV[8] = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL,
    0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
    0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL,
};

static const uint8_t B2B_SIGMA[12][16] = {
    { 0,  1,  2,  3,  4,  5,  6,  7,  8,  9, 10, 11, 12, 13, 14, 15},
    {14, 10,  4,  8,  9, 15, 13,  6,  1, 12,  0,  2, 11,  7,  5,  3},
    {11,  8, 12,  0,  5,  2, 15, 13, 10, 14,  3,  6,  7,  1,  9,  4},
    { 7,  9,  3,  1, 13, 12, 11, 14,  2,  6,  5, 10,  4,  0, 15,  8},
    { 9,  0,  5,  7,  2,  4, 10, 15, 14,  1, 11, 12,  6,  8,  3, 13},
    { 2, 12,  6, 10,  0, 11,  8,  3,  4, 13,  7,  5, 15, 14,  1,  9},
    {12,  5,  1, 15, 14, 13,  4, 10,  0,  7,  6,  3,  9,  2,  8, 11},
    {13, 11,  7, 14, 12,  1,  3,  9,  5,  0, 15,  4,  8,  6,  2, 10},
    { 6, 15, 14,  9, 11,  3,  0,  8, 12,  2, 13,  7,  1,  4, 10,  5},
    {10,  2,  8,  4,  7,  6,  1,  5, 15, 11,  9, 14,  3, 12, 13,  0},
    { 0,  1,  2,  3,  4,  5,  6,  7,  8,  9, 10, 11, 12, 13, 14, 15},
    {14, 10,  4,  8,  9, 15, 13,  6,  1, 12,  0,  2, 11,  7,  5,  3},
};

static inline uint64_t rotr64(uint64_t x, unsigned r) {
    return (x >> r) | (x << ((64u - r) & 63u));
}

#define B2B_G(a, b, c, d, x, y)            \
    do {                                   \
        v[a] = v[a] + v[b] + (x);          \
        v[d] = rotr64(v[d] ^ v[a], 32);    \
        v[c] = v[c] + v[d];                \
        v[b] = rotr64(v[b] ^ v[c], 24);    \
        v[a] = v[a] + v[b] + (y);          \
        v[d] = rotr64(v[d] ^ v[a], 16);    \
        v[c] = v[c] + v[d];                \
        v[b] = rotr64(v[b] ^ v[c], 63);    \
    } while (0)

/* BLAKE2b, 8-byte digest, no key, of a message of <= 128 bytes given
 * as little-endian 64-bit words (zero-padded to 16): one final block.
 * The digest bytes are the low word of h, read little-endian. */
static uint64_t blake2b_8(const uint64_t m[16], uint64_t n_bytes) {
    uint64_t v[16];
    const uint64_t h0 = B2B_IV[0] ^ 0x01010008ULL;  /* fanout 1, depth 1,
                                                       digest length 8 */
    v[0] = h0;
    for (int i = 1; i < 8; ++i) v[i] = B2B_IV[i];
    for (int i = 0; i < 8; ++i) v[8 + i] = B2B_IV[i];
    v[12] ^= n_bytes;   /* byte counter (t0; t1 stays 0) */
    v[14] = ~v[14];     /* final-block flag */
    for (int r = 0; r < 12; ++r) {
        const uint8_t *s = B2B_SIGMA[r];
        B2B_G(0, 4,  8, 12, m[s[ 0]], m[s[ 1]]);
        B2B_G(1, 5,  9, 13, m[s[ 2]], m[s[ 3]]);
        B2B_G(2, 6, 10, 14, m[s[ 4]], m[s[ 5]]);
        B2B_G(3, 7, 11, 15, m[s[ 6]], m[s[ 7]]);
        B2B_G(0, 5, 10, 15, m[s[ 8]], m[s[ 9]]);
        B2B_G(1, 6, 11, 12, m[s[10]], m[s[11]]);
        B2B_G(2, 7,  8, 13, m[s[12]], m[s[13]]);
        B2B_G(3, 4,  9, 14, m[s[14]], m[s[15]]);
    }
    return h0 ^ v[0] ^ v[8];
}

/* numpy SeedSequence(seed).generate_state(4, uint64) for a 64-bit
 * seed (numpy/random/bit_generator.pyx: mix_entropy, generate_state). */
static void seedseq_state4(uint64_t seed, uint64_t w[4]) {
    uint32_t pool[4] = {(uint32_t)seed, (uint32_t)(seed >> 32), 0, 0};
    uint32_t hc = 0x43b0d7e5u;              /* INIT_A */
#define HASHMIX(val, mult) \
    ((val) ^= hc, hc *= (mult), (val) *= hc, (val) ^= (val) >> 16, (val))
    for (int i = 0; i < 4; ++i) HASHMIX(pool[i], 0x931e8875u);
    for (int src = 0; src < 4; ++src) {
        for (int dst = 0; dst < 4; ++dst) {
            if (src == dst) continue;
            uint32_t h = pool[src];
            HASHMIX(h, 0x931e8875u);
            uint32_t r = 0xca01f9ddu * pool[dst] - 0x4973f715u * h;
            pool[dst] = r ^ (r >> 16);
        }
    }
    hc = 0x8b51f9ddu;                       /* INIT_B */
    uint32_t out32[8];
    for (int i = 0; i < 8; ++i) {
        uint32_t val = pool[i & 3];
        out32[i] = HASHMIX(val, 0x58f38dedu);
    }
#undef HASHMIX
    for (int i = 0; i < 4; ++i)
        w[i] = (uint64_t)out32[2 * i] | ((uint64_t)out32[2 * i + 1] << 32);
}

/* For each row of the n_rows x n_keys key matrix: seed =
 * BLAKE2b-64(root || keys) exactly as repro.util.rng.derive_seed, then
 * the first n_words next_uint64 words of np.random.PCG64(seed) (its
 * SeedSequence seeding, 128-bit LCG and XSL-RR output).  Needs
 * n_keys <= 15 (one BLAKE2b block). */
void repro_keyed_words(
    int64_t n_rows, int64_t n_keys, const int64_t *keys, uint64_t root,
    int64_t n_words, uint64_t *out)
{
    const unsigned __int128 mult =
        ((unsigned __int128)2549297995355413924ULL << 64)
        | 4865540595714422341ULL;
    const uint64_t n_bytes = 8 * (uint64_t)(n_keys + 1);
    for (int64_t r = 0; r < n_rows; ++r) {
        uint64_t m[16] = {0};
        m[0] = root;
        for (int64_t j = 0; j < n_keys; ++j)
            m[1 + j] = (uint64_t)keys[r * n_keys + j];
        uint64_t w[4];
        seedseq_state4(blake2b_8(m, n_bytes), w);
        /* pcg64_srandom: inc = initseq << 1 | 1, state = inc + initstate,
         * one step; initstate = w0:w1, initseq = w2:w3 (hi:lo). */
        const unsigned __int128 inc =
            ((((unsigned __int128)w[2] << 64) | w[3]) << 1) | 1u;
        unsigned __int128 st = inc + (((unsigned __int128)w[0] << 64) | w[1]);
        st = st * mult + inc;
        uint64_t *o = out + r * n_words;
        for (int64_t k = 0; k < n_words; ++k) {
            st = st * mult + inc;
            const uint64_t hi = (uint64_t)(st >> 64);
            o[k] = rotr64(hi ^ (uint64_t)st, (unsigned)(hi >> 58));
        }
    }
}
"""

_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_U64 = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")

#: most key columns one BLAKE2b block holds next to the root seed
MAX_KEY_COLUMNS = 15

#: memoised per process: None = not tried yet, False = unavailable
_lib: ctypes.CDLL | None | bool = None
_build_error: str | None = None


def cache_dir() -> Path:
    """Directory the compiled library is cached in (override with
    ``REPRO_CKERNEL_CACHE``)."""
    env = os.environ.get("REPRO_CKERNEL_CACHE")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / f"repro-ckernel-{os.getuid()}"


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


#: a lock file untouched for this long belongs to a dead builder
_LOCK_STALE_SECONDS = 60.0
#: give up waiting on someone else's build after this long
_LOCK_WAIT_SECONDS = 120.0


def _acquire_build_lock(lock: Path, out: Path) -> bool:
    """Serialise concurrent builders on an ``O_CREAT|O_EXCL`` lock file.

    Returns True when this process holds the lock (and must build),
    False when the library appeared while waiting.  A lock whose mtime
    stops advancing for :data:`_LOCK_STALE_SECONDS` is stolen — the
    holder died mid-compile (e.g. a killed test worker) and must not
    wedge every later process.
    """
    deadline = time.monotonic() + _LOCK_WAIT_SECONDS
    while True:
        if out.exists():
            return False
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                continue  # holder just released; retry immediately
            if age > _LOCK_STALE_SECONDS:
                try:
                    lock.unlink()
                except OSError:
                    pass
                continue
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"timed out waiting for a concurrent C kernel build ({lock})"
                )
            time.sleep(0.05)
            continue
        try:
            os.write(fd, str(os.getpid()).encode())
        finally:
            os.close(fd)
        return True


def _compile() -> Path:
    """Build (or reuse) the shared library; raises on any failure.

    Concurrent-safe at both levels: a build lock keeps N fresh
    processes from all running the compiler, and the final atomic
    ``os.replace`` means even an unlocked straggler can only ever
    install a complete library.
    """
    tag = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    out = cache_dir() / f"exposure-{tag}.so"
    if out.exists():
        return out
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (set $CC or install cc/gcc/clang)")
    out.parent.mkdir(parents=True, exist_ok=True)
    lock = out.with_suffix(".lock")
    if not _acquire_build_lock(lock, out):
        return out
    src = out.with_suffix(f".{os.getpid()}.c")
    tmp = out.with_suffix(f".{os.getpid()}.so.tmp")
    try:
        if out.exists():  # finished while we raced for the lock
            return out
        src.write_text(C_SOURCE)
        # -ffp-contract=off: an FMA would change the multiply-add bits
        # vs numpy; bit-exactness across kernels is the contract.
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-ffp-contract=off",
             "-fno-fast-math", str(src), "-o", str(tmp)],
            check=True, capture_output=True, text=True,
        )
        os.replace(tmp, out)  # atomic: a partial .so can never be seen
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(f"C kernel build failed:\n{exc.stderr}") from exc
    finally:
        for leftover in (src, tmp):
            try:
                leftover.unlink()
            except OSError:
                pass
        try:
            lock.unlink()
        except OSError:
            pass
    return out


def _load() -> ctypes.CDLL | bool:
    global _lib, _build_error
    if _lib is not None:
        return _lib
    if os.environ.get("REPRO_NO_CKERNEL", "") not in ("", "0"):
        _build_error = "disabled by REPRO_NO_CKERNEL"
        _lib = False
        return _lib
    try:
        lib = ctypes.CDLL(str(_compile()))
        fn = lib.repro_accumulate_exposures
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64, _I64, _I64, _I64, _U8, _I64, _I64, _I64, _I64,
            _F64, ctypes.c_int64, _F64, _I64, _I64,
        ]
        fn = lib.repro_keyed_words
        fn.restype = None
        fn.argtypes = [
            ctypes.c_int64, ctypes.c_int64, _I64, ctypes.c_uint64,
            ctypes.c_int64, _U64,
        ]
        _lib = lib
    except (RuntimeError, OSError) as exc:
        _build_error = str(exc)
        _lib = False
    return _lib


def available() -> bool:
    """True iff the compiled kernel can be (or has been) built and loaded."""
    return _load() is not False


def build_error() -> str | None:
    """Why :func:`available` is False (None while available/untried)."""
    available()
    return _build_error


def accumulate_exposures(
    vstart: np.ndarray,
    vend: np.ndarray,
    state: np.ndarray,
    sus: np.ndarray,
    slot: np.ndarray,
    row_block: np.ndarray,
    inf_rows: np.ndarray,
    inf_off: np.ndarray,
    haz_table: np.ndarray,
    n_states: int,
    total_hazard: np.ndarray,
    first_minute: np.ndarray,
    pair_count: np.ndarray,
) -> int:
    """Run the C accumulation loop; returns the interacting-pair count.

    All array arguments must be C-contiguous with the dtypes of the C
    signature; ``total_hazard`` / ``first_minute`` / ``pair_count`` are
    written in place (callers initialise them).
    """
    lib = _load()
    if lib is False:
        raise RuntimeError(f"compiled kernel unavailable: {_build_error}")
    return int(
        lib.repro_accumulate_exposures(
            vstart.size, vstart, vend, state, sus, slot, row_block,
            inf_rows, inf_off, haz_table, n_states,
            total_hazard, first_minute, pair_count,
        )
    )


def keyed_words(root_seed: int, keys: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` PCG64 words of the stream keyed by each row of ``keys``.

    ``keys`` is a C-contiguous ``(rows, k)`` ``int64`` array with ``k <=
    MAX_KEY_COLUMNS`` and ``root_seed`` is in ``[0, 2**64)``; row ``j``
    of the ``(rows, n)`` ``uint64`` result is bit-identical to
    ``raw_outputs(derive_seeds(root_seed, keys), n)[j]`` (see
    :mod:`repro.util.rng`), computed in one C loop.
    """
    lib = _load()
    if lib is False:
        raise RuntimeError(f"compiled kernel unavailable: {_build_error}")
    if keys.ndim != 2 or keys.shape[1] > MAX_KEY_COLUMNS:
        raise ValueError(
            f"keys must be (rows, k <= {MAX_KEY_COLUMNS}), got shape {keys.shape}"
        )
    rows, k = keys.shape
    out = np.empty((rows, n), dtype=np.uint64)
    # check_seed: ctypes would silently wrap a root outside uint64.
    lib.repro_keyed_words(rows, k, keys, check_seed(root_seed), n, out)
    return out
