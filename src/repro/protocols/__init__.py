"""Localized topology control protocols.

Importing this package registers every protocol under its short name
(``rng``, ``gabriel``, ``mst``, ``spt2``, ``spt4``, ``spt-region``,
``enclosure``, ``yao``, ``cbtc``, ``kneigh``, ``xtc``, ``none``); use
:func:`make_protocol` to instantiate by name.
"""

from repro.protocols.base import (
    ConditionProtocol,
    TopologyControlProtocol,
    available_protocols,
    make_protocol,
    register_protocol,
)
from repro.protocols.cbtc import CbtcProtocol
from repro.protocols.composite import CompositeProtocol
from repro.protocols.enclosure import EnclosureProtocol
from repro.protocols.gabriel import GabrielProtocol
from repro.protocols.kneigh import KNeighProtocol
from repro.protocols.mst import MstProtocol
from repro.protocols.none import NoTopologyControl
from repro.protocols.rng import RngProtocol
from repro.protocols.search_region import SearchRegionSptProtocol
from repro.protocols.spt import Spt2Protocol, Spt4Protocol, SptProtocol
from repro.protocols.xtc import XtcProtocol
from repro.protocols.yao import YaoProtocol

__all__ = [
    "TopologyControlProtocol",
    "ConditionProtocol",
    "register_protocol",
    "make_protocol",
    "available_protocols",
    "RngProtocol",
    "GabrielProtocol",
    "MstProtocol",
    "SptProtocol",
    "Spt2Protocol",
    "Spt4Protocol",
    "SearchRegionSptProtocol",
    "YaoProtocol",
    "CbtcProtocol",
    "KNeighProtocol",
    "NoTopologyControl",
    "EnclosureProtocol",
    "XtcProtocol",
    "CompositeProtocol",
]
