/**
 * @file
 * Compiler fixture, never linked: a switch over an enum class with no
 * default that omits one enumerator (Blue). The missing_enumerator
 * ctest compiles it with -Wall -Werror -fsyntax-only and passes only
 * when the compiler rejects it under -Wswitch. That is the check
 * behind every KILO_WERROR build, so kilolint carries no rule for it.
 */

enum class Foo
{
    Red,
    Green,
    Blue,
    NumFoo,
};

int
pick(Foo f)
{
    switch (f) {
      case Foo::Red:
        return 1;
      case Foo::Green:
        return 2;
      case Foo::NumFoo:  // -Wswitch wants a count sentinel named too
        break;
    }
    return 0;
}
