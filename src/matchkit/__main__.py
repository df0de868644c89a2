from .cli import main

if __name__ == "__main__":  # python -m matchkit
    raise SystemExit(main())
