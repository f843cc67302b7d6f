try:
    from .cli import run
except KeyboardInterrupt:  # a SIGINT while the command loads exits as one during its run does: 130, nothing printed
    raise SystemExit(130) from None

if __name__ == "__main__":
    run()
