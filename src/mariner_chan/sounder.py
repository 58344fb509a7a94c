"""Zadoff-Chu channel sounding simulation.

Periodic (circular) sounding: a constant-amplitude Zadoff-Chu sequence is
circularly convolved with a tapped-delay-line channel, noise is added, and the
channel impulse response is recovered by transform-domain cross-correlation
with the conjugated reference.  Edge transients are ignored, matching
repeated-sequence operation, which is also what makes the off-peak
autocorrelation exactly zero.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .sparsity import PdpRecord

IQ_MAGIC = b"MCIQ1"


@dataclass(frozen=True)
class ZcConfig:
    """Odd sequence length and a root coprime with it."""

    length: int = 65535
    root: int = 1

    def __post_init__(self):
        if self.length < 1 or self.length % 2 == 0:
            raise ValueError(f"sequence length must be odd and positive, got {self.length}")
        if math.gcd(self.root, self.length) != 1:
            raise ValueError(f"root {self.root} not coprime with length {self.length}")


@dataclass
class Cir:
    """Complex channel taps on a uniform delay grid."""

    taps: np.ndarray
    delta_tau: float = 50e-9  # s per bin (20 MHz sounding bandwidth)

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=complex)
        if self.delta_tau <= 0:
            raise ValueError(f"delay bin width must be positive, got {self.delta_tau}")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("channel taps must be finite")


def zc_sequence(cfg: ZcConfig) -> np.ndarray:
    """Odd-length Zadoff-Chu sequence z[k] = exp(-j*pi*u*k*(k+1)/L)."""
    k = np.arange(cfg.length, dtype=float)
    phase = -math.pi * cfg.root * k * (k + 1.0) / cfg.length
    return np.exp(1j * phase)


def extract_cir(rx: np.ndarray, cfg: ZcConfig, delta_tau: float = 50e-9) -> Cir:
    """Circular cross-correlation of one received period with the conjugated
    reference, normalized by the sequence length; O(L log L) via FFTs.
    """
    rx = np.asarray(rx, dtype=complex)
    if rx.size < cfg.length:
        raise ValueError(f"need at least {cfg.length} samples, got {rx.size}")
    ref = zc_sequence(cfg)
    # correlating with ref is convolving with h[m] = conj(ref[-m mod L])
    taps = _circular_convolve(rx[: cfg.length], np.conj(np.roll(ref[::-1], 1))) / cfg.length
    return Cir(taps=taps, delta_tau=delta_tau)


def pdp_from_cir(c: Cir, max_taps: int | None = None) -> PdpRecord:
    """Squared-magnitude power delay profile of the impulse response."""
    if max_taps is not None and max_taps < 1:
        raise ValueError(f"max_taps must be at least 1, got {max_taps}")
    taps = c.taps if max_taps is None else c.taps[:max_taps]
    powers = np.abs(taps) ** 2
    delays = np.arange(taps.size) * c.delta_tau
    return PdpRecord(delays=delays, powers=powers)


def simulate_link(true_cir: Cir, cfg: ZcConfig, snr_db: float,
                  seed: int | None = None) -> np.ndarray:
    """One received period: circular convolution of the sounding sequence with
    the channel plus complex white Gaussian noise at the given per-sample SNR
    (noise power relative to the mean received sample power).
    """
    if true_cir.taps.size > cfg.length:
        raise ValueError(f"channel has {true_cir.taps.size} taps, more than the "
                         f"sequence length {cfg.length}")
    if not (math.isfinite(snr_db) or snr_db > 0):
        raise ValueError(f"SNR must be finite or +inf, got {snr_db}")
    rx = _circular_convolve(zc_sequence(cfg), true_cir.taps)
    if math.isinf(snr_db):  # noiseless
        return rx
    sig_power = float(np.mean(np.abs(rx) ** 2))
    noise_power = sig_power / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    noise = math.sqrt(noise_power / 2.0) * (rng.standard_normal(rx.size)
                                            + 1j * rng.standard_normal(rx.size))
    return rx + noise


def _fft_length(n: int) -> int:
    """The smallest 5-smooth length 2^a * 3^b * 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that is >= n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _circular_convolve(seq: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Length-L circular convolution of ``seq`` with K <= L ``taps``: the linear
    convolution through FFTs of the smallest 5-smooth length M >= L + K - 1,
    its last K - 1 points folded onto the first. The default L = 65535 =
    3*5*17*257 would otherwise put a radix-257 pass in every L-point
    transform; with K = 5 taps M = 65610 = 2*3^8*5, about half of 2^17.
    """
    n = seq.size + taps.size - 1
    m = _fft_length(n)
    full = np.fft.ifft(np.fft.fft(seq, m) * np.fft.fft(taps, m))
    out = full[: seq.size]
    out[: n - seq.size] += full[seq.size: n]
    return out


def save_iq(path, samples: np.ndarray) -> None:
    """Write complex samples as magic header + little-endian interleaved
    float64 I/Q pairs.
    """
    samples = np.asarray(samples, dtype=complex)
    inter = np.empty(2 * samples.size, dtype="<f8")
    inter[0::2] = samples.real
    inter[1::2] = samples.imag
    with open(path, "wb") as fh:
        fh.write(IQ_MAGIC)
        fh.write(struct.pack("<Q", samples.size))
        fh.write(inter.tobytes())


def load_iq(path) -> np.ndarray:
    """Complex samples from a file written by ``save_iq``; ValueError for a
    bad magic, a short header, or fewer sample bytes than the header counts."""
    with open(path, "rb") as fh:
        magic = fh.read(len(IQ_MAGIC))
        if magic != IQ_MAGIC:
            raise ValueError(f"bad IQ file magic {magic!r}")
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError("truncated IQ file header")
        (count,) = struct.unpack("<Q", header)
        if os.fstat(fh.fileno()).st_size - fh.tell() < 16 * count:
            raise ValueError(f"truncated IQ file: fewer than the {count} samples of its header")
        inter = np.frombuffer(fh.read(16 * count), dtype="<f8")
    if inter.size != 2 * count:
        raise ValueError("truncated IQ file")
    return inter[0::2] + 1j * inter[1::2]
