from hypothesis import settings

# Property tests run the same examples on every run (derandomized, no
# example database) and without per-example deadlines, whose timing would
# depend on the host's load.
settings.register_profile(
    "ququint", derandomize=True, database=None, deadline=None, max_examples=40
)
settings.load_profile("ququint")
