"""Hostless web applications (§3.4): signed site bundles, peer discovery
via a tracker, and visitor-seeded swarms."""

from repro.webapps.site import HostlessSite, SiteBundle, SiteManifest
from repro.webapps.swarm import SiteSwarm, VisitorProcess, VisitorStats
from repro.webapps.tracker import Tracker

__all__ = [
    "HostlessSite",
    "SiteBundle",
    "SiteManifest",
    "Tracker",
    "SiteSwarm",
    "VisitorProcess",
    "VisitorStats",
]
