"""The one base class of the errors the library raises."""


class HeapdyckError(Exception):
    """Base of every heapdyck error; each also keeps its builtin base, such as ValueError."""
