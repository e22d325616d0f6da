"""Multi-user MIMO linear precoding (ZF / MMSE / unified) with a
reproducible Monte Carlo BER harness.

Each name below is imported from its module when first read, so that
importing ulpsim, or its numpy-free config and cli, does not load numpy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "channel": ("draw_user_pool", "select_users"),
    "config": ("BerRecord", "BerTable", "SchemeMode", "SimulationConfig",
               "snr_db_to_noise_variance"),
    "harness": ("run_point", "run_sweep"),
    "modem": ("draw_awgn", "qpsk_demodulate", "qpsk_modulate", "transmit_receive"),
    "precoder": ("Precoder", "build_conventional", "build_unified", "power_scale"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
