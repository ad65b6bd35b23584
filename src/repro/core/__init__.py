"""SCR core: packet format, history ring, App. C transform, loss recovery."""

from .engine import ScrFunctionalEngine, ScrRunResult, reference_run
from .history import HistoryRing
from .packet_format import SCR_MAGIC, ScrHeader, ScrPacketCodec
from .recovery import LOST, CatchupEntry, LossRecoveryManager
from .scr_aware import GapRepair, ScrCoreRuntime
from .threaded import ThreadedScrEngine
from .validate import ValidationReport, validate_program

__all__ = [
    "ScrFunctionalEngine",
    "ScrRunResult",
    "reference_run",
    "HistoryRing",
    "SCR_MAGIC",
    "ScrHeader",
    "ScrPacketCodec",
    "LOST",
    "CatchupEntry",
    "LossRecoveryManager",
    "GapRepair",
    "ScrCoreRuntime",
    "ThreadedScrEngine",
    "ValidationReport",
    "validate_program",
]
