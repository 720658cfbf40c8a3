"""Memory-controller substrate: scheduling, page policy, RFM issue logic."""

from repro.mc.rfm import RaaCounter, RfmIssueLogic
from repro.mc.scheduler import BlissScheduler, FrFcfsScheduler, make_scheduler
from repro.mc.pagepolicy import make_page_policy
from repro.mc.controller import BankController, ChannelState

__all__ = [
    "RaaCounter",
    "RfmIssueLogic",
    "BlissScheduler",
    "FrFcfsScheduler",
    "make_scheduler",
    "make_page_policy",
    "BankController",
    "ChannelState",
]
