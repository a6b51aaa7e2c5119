"""Hypothesis profiles for the tier-1 suite.

``default`` is hypothesis's own (100 examples a property unless a test
sets ``max_examples``).  ``nightly`` is for scheduled CI runs: the
properties that leave ``max_examples`` to the profile (the mailbox
oracle in ``test_mailbox_oracle.py``) run 20 000 examples, with no
deadline.  Select it with ``--hypothesis-profile=nightly``.
"""

from hypothesis import settings

settings.register_profile("nightly", max_examples=20000, deadline=None)
