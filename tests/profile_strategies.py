"""Hypothesis strategies over the builtin profile grammar of phi and f.

The strategies are built from the grammar's one declaration,
degenfrac.cli._PROFILES, so a profile added there is drawn here with no
change.  profile_texts(axis) draws a text that the grammar accepts on
axis "space" or "time": a bare name for a profile that takes no argument,
and name:arg with an argument of the profile's kind otherwise.  A space
text may be mode:k with k in 1..MODES, so it needs an eigensystem of at
least MODES modes.  no_argument_profiles() draws (axis, name) of a
profile that takes no argument.
"""
from hypothesis import strategies as st

from degenfrac import cli

#: the largest k a drawn mode:k takes
MODES = 4

_COLUMN = {"space": 1, "time": 2}

#: an argument text of each kind; numbers are >= 0, the range spow:q takes
_ARGUMENTS = {
    "number": st.floats(0.0, 4.0).map(repr),
    "integer": st.integers(1, MODES).map(str),
    "numbers": st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4).map(
        lambda cs: ",".join(map(repr, cs))),
}


def profile_names(axis):
    """The names of the profiles of axis, in table order."""
    return [name for name, entry in cli._PROFILES.items()
            if entry[_COLUMN[axis]] is not None]


def _text(name):
    kind = cli._PROFILES[name][0]
    if kind is None:
        return st.just(name)
    return _ARGUMENTS[kind].map(lambda arg: f"{name}:{arg}")


def profile_texts(axis):
    """A profile text the grammar accepts on axis."""
    return st.sampled_from(profile_names(axis)).flatmap(_text)


def no_argument_profiles():
    """(axis, name) of a profile that takes no argument."""
    return st.sampled_from([(axis, name) for axis in _COLUMN
                            for name in profile_names(axis)
                            if cli._PROFILES[name][0] is None])
