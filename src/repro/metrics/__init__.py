"""Evaluation metrics (paper Section III)."""

from .quality import (
    compression_ratio,
    prd,
    snr_db,
    snr_from_prd,
)
from .stats import SweepPoint, aggregate_points
from .diagnostic import DiagnosticReport, HrvSummary, diagnostic_report, hrv_summary

__all__ = [
    "DiagnosticReport",
    "HrvSummary",
    "diagnostic_report",
    "hrv_summary",
    "compression_ratio",
    "prd",
    "snr_db",
    "snr_from_prd",
    "SweepPoint",
    "aggregate_points",
]
