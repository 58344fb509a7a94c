"""Sounding-chain tests: sequence properties, exact recovery, file format."""

import math
import struct

import numpy as np
import pytest

from mariner_chan.sounder import (
    Cir,
    IQ_MAGIC,
    ZcConfig,
    _circular_convolve,
    extract_cir,
    load_iq,
    pdp_from_cir,
    save_iq,
    simulate_link,
    zc_sequence,
)


def test_zc_sequence_constant_amplitude():
    z = zc_sequence(ZcConfig(length=255, root=7))
    assert z.size == 255
    assert np.allclose(np.abs(z), 1.0, atol=1e-12)


@pytest.mark.parametrize("length,root", [(255, 1), (255, 7), (63, 5)])
def test_zc_periodic_autocorrelation_ideal(length, root):
    z = zc_sequence(ZcConfig(length=length, root=root))
    ac = np.fft.ifft(np.fft.fft(z) * np.conj(np.fft.fft(z)))
    assert abs(ac[0]) == pytest.approx(length, rel=1e-12)
    assert float(np.max(np.abs(ac[1:]))) < 1e-9 * length


def test_noiseless_loop_recovers_taps_exactly():
    cfg = ZcConfig(length=255, root=1)
    taps = np.array([1.0, 0.4 - 0.3j, 0.1j, 0.05])
    rx = simulate_link(Cir(taps=taps), cfg, snr_db=math.inf)
    cir = extract_cir(rx, cfg)
    assert np.allclose(cir.taps[:4], taps, atol=1e-12)
    assert float(np.max(np.abs(cir.taps[4:]))) < 1e-12


def test_noisy_loop_recovers_tap_powers():
    cfg = ZcConfig(length=65535, root=1)
    taps = np.array([1.0, 0.5, 0.25, 0.125, 0.0625]) * np.exp(1j * np.arange(5))
    rx = simulate_link(Cir(taps=taps), cfg, snr_db=30.0, seed=0)
    est = pdp_from_cir(extract_cir(rx, cfg), max_taps=5)
    err_db = 10 * np.log10(est.powers / np.abs(taps) ** 2)
    assert float(np.max(np.abs(err_db))) < 0.5


def _smooth_length(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n, by trial division of each candidate."""
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1
    return next(m for m in range(n, 2 * n + 1) if smooth(m))


def _fft_tolerance(n: int, exact: np.ndarray) -> float:
    """eps * log2(M) of the largest exact output, M the padded transform length for n points."""
    return np.finfo(float).eps * math.log2(_smooth_length(n)) * float(np.max(np.abs(exact)))


def _l_point_convolve(seq, taps):
    """The unpadded L-point transform path, as the error to be no worse than."""
    h = np.zeros(seq.size, dtype=complex)
    h[: taps.size] = taps
    return np.fft.ifft(np.fft.fft(seq) * np.fft.fft(h))


@pytest.mark.parametrize("length", [63, 255, 65535, 65537])
@pytest.mark.parametrize("n_taps", [1, 5, "L"])
def test_circular_convolve_matches_the_exact_sum(length, n_taps):
    """Against sum_m taps[m] * seq[(k - m) mod L] in extended precision: within
    eps * log2(M) of the largest output, and at the long lengths, whose L-point
    transforms take a radix-257 or a Bluestein pass, no worse than those."""
    k = length if n_taps == "L" else n_taps
    rng = np.random.default_rng(length + k)
    seq = zc_sequence(ZcConfig(length=length))
    taps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    wide = seq.astype(np.clongdouble)
    if k <= 5:
        lags = np.arange(length)
        exact = sum(taps[m] * np.roll(wide, m) for m in range(k))
    else:  # O(L) per lag: every lag up to L = 255, the first 8 beyond
        lags = np.arange(length if length <= 255 else 8)
        exact = np.array([np.sum(taps * wide[(lag - np.arange(k)) % length]) for lag in lags])
    out = _circular_convolve(seq, taps)
    assert out.shape == (length,)
    err = float(np.max(np.abs(out[lags] - exact)))
    assert err <= _fft_tolerance(length + k - 1, exact)
    if length >= 65535:
        assert err <= float(np.max(np.abs(_l_point_convolve(seq, taps)[lags] - exact)))


@pytest.mark.parametrize("length", [63, 255, 65535, 65537])
@pytest.mark.parametrize("n_taps", [1, 5, "L"])
def test_circular_convolve_transforms_at_the_smallest_5_smooth_length(length, n_taps, monkeypatch):
    k = length if n_taps == "L" else n_taps
    fft, lengths = np.fft.fft, []

    def recorded(a, n=None, *rest, **kwargs):
        lengths.append(n)
        return fft(a, n, *rest, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recorded)
    _circular_convolve(np.ones(length, dtype=complex), np.ones(k, dtype=complex))
    assert lengths == [_smooth_length(length + k - 1)] * 2


@pytest.mark.parametrize("length, n_lags", [(255, 255), (65535, 8)])
@pytest.mark.parametrize("root", [1, 7])
def test_extract_cir_is_the_direct_circular_correlation(length, n_lags, root):
    cfg = ZcConfig(length=length, root=root)
    rx = simulate_link(Cir(taps=np.array([1.0, 0.4 - 0.3j, 0.1j, 0.05])), cfg,
                       snr_db=20.0, seed=length)
    ref = zc_sequence(cfg).astype(np.clongdouble)
    n = np.arange(length)
    direct = np.array([np.sum(rx * np.conj(ref[(n - lag) % length]))
                       for lag in range(n_lags)]) / length
    taps = extract_cir(np.concatenate([rx, rx[:3]]), cfg).taps
    assert taps.shape == (length,)
    assert float(np.max(np.abs(taps[:n_lags] - direct))) <= _fft_tolerance(2 * length - 1, direct)


def test_pdp_from_cir_delay_grid():
    cir = Cir(taps=np.array([1.0, 0.5j]), delta_tau=50e-9)
    pdp = pdp_from_cir(cir)
    assert np.allclose(pdp.delays, [0.0, 50e-9])
    assert np.allclose(pdp.powers, [1.0, 0.25])


@pytest.mark.parametrize("max_taps", [0, -2])
def test_pdp_from_cir_needs_at_least_one_tap(max_taps):
    with pytest.raises(ValueError, match="max_taps"):
        pdp_from_cir(Cir(taps=np.array([1.0, 0.5j, 0.25])), max_taps=max_taps)


def test_iq_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    path = tmp_path / "samples.iq"
    save_iq(path, x)
    y = load_iq(path)
    assert np.array_equal(x, y)
    assert path.read_bytes()[:5] == IQ_MAGIC


def test_iq_bad_magic(tmp_path):
    path = tmp_path / "bad.iq"
    path.write_bytes(b"WRONG" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_iq(path)


def _truncated_iq_files(tmp_path):
    """IQ files cut short in the samples or in the header, and one whose
    header counts 2**62 samples."""
    save_iq(tmp_path / "full.iq", np.ones(10, dtype=complex))
    data = (tmp_path / "full.iq").read_bytes()
    files = {"short-body.iq": data[:-8], "magic-only.iq": data[:5], "short-header.iq": data[:7],
             "huge-count.iq": data[:5] + struct.pack("<Q", 2**62) + data[13:]}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    return [tmp_path / name for name in files]


def test_iq_truncated(tmp_path):
    for path in _truncated_iq_files(tmp_path):
        with pytest.raises(ValueError, match="truncated"):
            load_iq(path)


def test_validation():
    with pytest.raises(ValueError):
        ZcConfig(length=64, root=1)      # even length
    with pytest.raises(ValueError):
        ZcConfig(length=255, root=15)    # gcd(15, 255) = 15
    with pytest.raises(ValueError):
        Cir(taps=np.array([np.nan + 0j]))
    with pytest.raises(ValueError):
        Cir(taps=np.array([1.0 + 0j]), delta_tau=0.0)
    with pytest.raises(ValueError):
        extract_cir(np.ones(10, dtype=complex), ZcConfig(length=255))
    with pytest.raises(ValueError):
        simulate_link(Cir(taps=np.array([1.0 + 0j])), ZcConfig(length=255),
                      snr_db=-math.inf)
    with pytest.raises(ValueError, match="channel has 300 taps, more than the sequence length 255"):
        simulate_link(Cir(taps=np.ones(300)), ZcConfig(length=255), snr_db=30.0)
