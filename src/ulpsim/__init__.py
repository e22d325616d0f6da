"""Multi-user MIMO linear precoding (ZF / MMSE / unified) with a
reproducible Monte Carlo BER harness."""

__version__ = "0.1.0"

from .channel import ChannelMatrix, UserPool, draw_user_pool, select_users
from .harness import (
    BerRecord,
    BerTable,
    SimulationConfig,
    ber_gap,
    run_point,
    run_sweep,
    snr_db_to_noise_variance,
)
from .modem import draw_awgn, qpsk_demodulate, qpsk_modulate, transmit_receive
from .precoder import (
    Precoder,
    SchemeMode,
    build_conventional,
    build_unified,
    effective_gain,
    power_scale,
)

__all__ = [
    "BerRecord",
    "BerTable",
    "ChannelMatrix",
    "Precoder",
    "SchemeMode",
    "SimulationConfig",
    "UserPool",
    "ber_gap",
    "build_conventional",
    "build_unified",
    "draw_awgn",
    "draw_user_pool",
    "effective_gain",
    "power_scale",
    "qpsk_demodulate",
    "qpsk_modulate",
    "run_point",
    "run_sweep",
    "select_users",
    "snr_db_to_noise_variance",
    "transmit_receive",
]
