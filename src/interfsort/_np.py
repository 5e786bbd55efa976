"""numpy, imported on the first attribute access.

Every module of the package binds `from . import _np as np` and writes
`np.<name>` as usual.  The first lookup of a name imports numpy (PEP 562)
and caches the value here, so later lookups are plain module-dict reads,
and `import interfsort` alone never loads numpy.
"""


def __getattr__(name):
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
