"""SHA-256 from CPython's built-in module rather than OpenSSL.

``hashlib`` maps OpenSSL's libcrypto (~3.4 MB resident) the first time
it is imported; the built-in ``_sha2`` (CPython 3.12+) or ``_sha256``
(3.10, 3.11) maps only itself.  The digests are the same bytes, so the
choice changes no instance digest and no lint fingerprint.  ``hashlib``
is the fallback for an interpreter built without either module.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["builtin_sha256", "sha256"]


def builtin_sha256() -> Callable[..., Any]:
    """The ``sha256`` constructor: built-in where it exists, else
    ``hashlib``'s."""
    try:
        from _sha2 import sha256 as new
    except ImportError:
        try:
            from _sha256 import sha256 as new
        except ImportError:
            from hashlib import sha256 as new
    return new


#: ``sha256(data=b"")``, as :func:`hashlib.sha256`: ``update``, ``digest``
#: and ``hexdigest`` on the object it returns.
sha256 = builtin_sha256()
