"""Probe engine (Scanv6 analogue): responses, blocklist, rate limiting, stats."""

from .blocklist import Blocklist
from .engine import Scanner, ScanResult
from .ratelimit import RateLimiter, TokenBucket
from .responses import ResponseType, affirmative_response, negative_response
from .stats import ScanStats

__all__ = [
    "Scanner",
    "ScanResult",
    "Blocklist",
    "RateLimiter",
    "TokenBucket",
    "ResponseType",
    "affirmative_response",
    "negative_response",
    "ScanStats",
]
