"""README agrees with the code on the limits and channels it documents."""

import re
from pathlib import Path

from nbhdmc import cli
from nbhdmc.model import MAX_STATES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_state_cap_is_max_states():
    caps = re.findall(r"States are nonempty, at most (\d+)", README)
    assert caps == [str(MAX_STATES)]


def test_readme_lists_every_error_channel():
    listing = re.search(r"prefixed by a channel:\n(.*?\.)\n", README, re.S)
    assert listing, "README lost its list of error channels"
    listed = re.findall(r"`error: ([a-z-]+):`", listing.group(1))
    assert sorted(listed) == sorted(channel for _, channel in cli._CHANNELS)
