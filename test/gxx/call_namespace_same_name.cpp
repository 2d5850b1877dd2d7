// g++: 12
// a::f and b::f share a name; each qualified call runs its own.
namespace a { int f(int x) { return 2; } }
namespace b { int f(int x) { return 10; } }
int main() {
  return a::f(1) + b::f(1);
}
