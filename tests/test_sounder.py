"""Sounding-chain tests: sequence properties, exact recovery, file format."""

import math
import struct

import numpy as np
import pytest

from mariner_chan.sounder import (
    Cir,
    IQ_MAGIC,
    ZcConfig,
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
